// antarex-weave: command-line front door of the ANTAREX tool flow (Figure 1).
//
// Subcommands:
//   weave   <app.c> <strategy.lara> <Aspect> [inputs...]   S2S: print woven source
//   run     <app.c> <entry> [int args...]                  execute on the VM
//   explore [--threads N] <app.c> <entry> [int args...]    iterative compilation
//   disasm  <app.c> <function>                             show VM bytecode
//   check   <app.c>                                        semantic diagnostics
//
// `explore` evaluates candidate pipelines on an antarex::exec thread pool;
// --threads N sets the worker count (N <= 0 or no flag: hardware
// concurrency). Results are bit-identical for every N — see README "Parallel
// execution". Integer arguments that do not parse are an error.
//
// The global --telemetry=<off|on|trace> flag (any position, any subcommand)
// enables the telemetry runtime: `on` prints the registry summary after the
// command, `trace` additionally writes antarex_weave_trace.json.
//
// Aspect inputs are passed as strings when quoted ('...'), numbers otherwise.
// `run` array parameters are not supported from the CLI; use the examples for
// buffer-based kernels.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cir/analysis.hpp"
#include "cir/parser.hpp"
#include "cir/printer.hpp"
#include "dsl/weaver.hpp"
#include "exec/pool.hpp"
#include "passes/iterative.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/compiler.hpp"
#include "vm/engine.hpp"

namespace {

using namespace antarex;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::fputs(
      "usage: antarex-weave <command> ...\n"
      "  weave   <app.c> <strategy.lara> <Aspect> [inputs...]\n"
      "  run     <app.c> <entry> [int args...]\n"
      "  explore [--threads N] <app.c> <entry> [int args...]\n"
      "  disasm  <app.c> <function>\n"
      "  check   <app.c>\n"
      "global flags:\n"
      "  --telemetry=off|on|trace  off (default): no telemetry; on: print\n"
      "                            the metrics registry summary; trace: also\n"
      "                            write antarex_weave_trace.json\n",
      stderr);
  return 2;
}

/// Strip the global --telemetry flag from argv (any position) and apply it.
/// Returns the trace-mode decision so main can dump the buffer on exit.
bool apply_telemetry_flag(int& argc, char** argv) {
  bool trace = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--telemetry=", 0) == 0) {
      const std::string mode = arg.substr(std::strlen("--telemetry="));
      if (mode == "trace") {
        trace = true;
        telemetry::set_enabled(true);
      } else if (mode == "on") {
        telemetry::set_enabled(true);
      } else if (mode == "off") {
        telemetry::set_enabled(false);
      } else {
        throw Error("unknown --telemetry mode '" + mode +
                    "' (want off|on|trace)");
      }
      continue;  // strip
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return trace;
}

dsl::Val parse_input(const std::string& arg) {
  if (arg.size() >= 2 && arg.front() == '\'' && arg.back() == '\'')
    return dsl::Val::str(arg.substr(1, arg.size() - 2));
  char* end = nullptr;
  const double v = std::strtod(arg.c_str(), &end);
  if (end && *end == '\0') return dsl::Val::num(v);
  return dsl::Val::str(arg);
}

int cmd_weave(int argc, char** argv) {
  if (argc < 3) return usage();
  auto module = cir::parse_module(read_file(argv[0]));
  vm::Engine engine;
  engine.load_module(*module);
  dsl::Weaver weaver(*module, &engine);
  weaver.load_source(read_file(argv[1]));

  std::vector<dsl::Val> inputs;
  for (int i = 3; i < argc; ++i) inputs.push_back(parse_input(argv[i]));
  weaver.run(argv[2], std::move(inputs));

  const auto& st = weaver.stats();
  std::fprintf(stderr,
               "// woven: %zu selection(s), %zu insert(s), %zu unroll(s), "
               "%zu specialization(s), %zu dynamic registration(s)\n",
               st.selections, st.inserts, st.unrolls, st.specializations,
               st.dynamic_registrations);
  std::fputs(cir::to_source(*module).c_str(), stdout);
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 2) return usage();
  auto module = cir::parse_module(read_file(argv[0]));
  const auto diags = cir::check_module(*module);
  for (const auto& d : diags)
    std::fprintf(stderr, "%s: error: %s\n", d.loc.to_string().c_str(),
                 d.message.c_str());
  if (!diags.empty()) return 1;

  vm::Engine engine;
  engine.load_module(*module);
  std::vector<vm::Value> args;
  for (int i = 2; i < argc; ++i)
    args.push_back(vm::Value::from_int(parse_int<i64>(argv[i], "run argument")));
  const vm::Value result = engine.call(argv[1], std::move(args));
  std::printf("%s\n", result.to_string().c_str());
  std::fprintf(stderr, "// %llu instructions executed\n",
               static_cast<unsigned long long>(engine.executed_instructions()));
  return 0;
}

int cmd_explore(int argc, char** argv) {
  int threads = exec::ThreadPool::hardware_threads();
  if (argc >= 2 && std::strcmp(argv[0], "--threads") == 0) {
    const int v = parse_int<int>(argv[1], "--threads");
    if (v > 0) threads = v;
    argc -= 2;
    argv += 2;
  }
  if (argc < 2) return usage();
  auto module = cir::parse_module(read_file(argv[0]));
  const std::string entry = argv[1];
  std::vector<i64> int_args;
  for (int i = 2; i < argc; ++i)
    int_args.push_back(parse_int<i64>(argv[i], "explore argument"));

  passes::Workload workload;
  workload.entry = entry;
  workload.make_args = [int_args] {
    std::vector<vm::Value> out;
    for (i64 v : int_args) out.push_back(vm::Value::from_int(v));
    return out;
  };
  exec::ThreadPool pool(threads);
  passes::IterativeCompiler explorer;
  explorer.set_pool(&pool);
  const passes::IterativeResult r = explorer.explore_exhaustive(*module, workload, 2);
  std::printf("threads:  %d\n", threads);
  std::printf("baseline: %llu instructions\n",
              static_cast<unsigned long long>(r.baseline_instructions));
  std::printf("best:     %llu instructions  (pipeline '%s', %.2fx)\n",
              static_cast<unsigned long long>(r.best_instructions),
              r.best_pipeline.c_str(), r.best_speedup());
  std::printf("evaluated %zu pipelines:\n", r.evaluated.size());
  for (const auto& c : r.evaluated)
    std::printf("  %-40s %10llu%s\n", c.pipeline.c_str(),
                static_cast<unsigned long long>(c.instructions),
                c.output_matches_baseline ? "" : "  [OUTPUT MISMATCH]");
  return 0;
}

int cmd_disasm(int argc, char** argv) {
  if (argc < 2) return usage();
  auto module = cir::parse_module(read_file(argv[0]));
  const cir::Function* f = module->find(argv[1]);
  if (!f) {
    std::fprintf(stderr, "error: no function '%s'\n", argv[1]);
    return 1;
  }
  std::fputs(vm::compile_function(*f).disassemble().c_str(), stdout);
  return 0;
}

int cmd_check(int argc, char** argv) {
  if (argc < 1) return usage();
  auto module = cir::parse_module(read_file(argv[0]));
  const auto diags = cir::check_module(*module);
  for (const auto& d : diags)
    std::printf("%s: error: %s\n", d.loc.to_string().c_str(), d.message.c_str());
  std::printf("%zu function(s), %zu diagnostic(s)\n", module->functions.size(),
              diags.size());
  return diags.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bool trace = apply_telemetry_flag(argc, argv);
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    int rc = 2;
    if (cmd == "weave") rc = cmd_weave(argc - 2, argv + 2);
    else if (cmd == "run") rc = cmd_run(argc - 2, argv + 2);
    else if (cmd == "explore") rc = cmd_explore(argc - 2, argv + 2);
    else if (cmd == "disasm") rc = cmd_disasm(argc - 2, argv + 2);
    else if (cmd == "check") rc = cmd_check(argc - 2, argv + 2);
    else return usage();
    if (telemetry::enabled()) {
      std::puts("\n-- telemetry registry --");
      telemetry::summary_table().print();
      if (trace) {
        telemetry::write_text_file("antarex_weave_trace.json",
                                   telemetry::chrome_trace_json());
        std::puts("wrote antarex_weave_trace.json");
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "antarex-weave: %s\n", e.what());
    return 1;
  }
}
