// FIG1 (paper Figure 1): the full ANTAREX tool flow, end to end.
//
// Exercises every box of the figure in order and reports per-stage costs plus
// the behaviour of the two closed loops:
//   C/C++ functional description  -> mini-C parse
//   ANTAREX DSL specifications    -> aspect parse
//   S2S compiler and weaver       -> static weave (monitor probes)
//   split compiler                -> iterative compilation (offline)
//   runtime + JIT manager         -> dynamic specialization (online)
//   autotuning control loop       -> knob convergence
//   RTRM control loop             -> power-capped cluster running the jobs
#include <chrono>
#include <memory>

#include "bench_common.hpp"
#include "cir/parser.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "passes/iterative.hpp"
#include "passes/pass_manager.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "search/search.hpp"
#include "tuner/autotuner.hpp"
#include "vm/engine.hpp"

namespace {
double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

int main(int argc, char** argv) {
  using namespace antarex;

  bench::parse_telemetry(argc, argv);
  bench::header("FIG1", "full tool-flow walk (every box of Figure 1)");
  Table t({"stage (Figure 1 box)", "what happened", "cost"});

  // 1. Functional description.
  auto t0 = std::chrono::steady_clock::now();
  auto module = cir::parse_module(R"(
    double kernel(double* a, int size) {
      double acc = 0.0;
      for (int i = 0; i < size; i++) { acc = acc + a[i] * a[i] + 0; }
      return acc * 1;
    }
    double app(double* a, int size, int reps) {
      double acc = 0.0;
      for (int r = 0; r < reps; r++) { acc = acc + kernel(a, size); }
      return acc;
    }
  )");
  t.add_row({"C/C++ functional description", "2 functions parsed to mini-C IR",
             format("%.2f ms", ms_since(t0))});

  // 2. DSL specifications.
  t0 = std::chrono::steady_clock::now();
  vm::Engine engine;
  dsl::Weaver weaver(*module, &engine);
  weaver.load_source(R"(
    aspectdef ProfileArguments
      input funcName end
      select fCall end
      apply
        insert before %{profile_args('[[funcName]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
      end
      condition $fCall.name == funcName end
    end
    aspectdef UnrollInnermostLoops
      input $func, threshold end
      select $func.loop{type=='for'} end
      apply
        do LoopUnroll('full');
      end
      condition $loop.isInnermost && $loop.numIter <= threshold end
    end
    aspectdef SpecializeKernel
      input lowT, highT end
      call spCall: PrepareSpecialize('kernel','size');
      select fCall{'kernel'}.arg{'size'} end
      apply dynamic
        call spOut : Specialize($fCall, $arg.name, $arg.runtimeValue);
        call UnrollInnermostLoops(spOut.$func, $arg.runtimeValue);
        call AddVersion(spCall, spOut.$func, $arg.runtimeValue);
      end
      condition $arg.runtimeValue >= lowT && $arg.runtimeValue <= highT end
    end
  )");
  t.add_row({"ANTAREX DSL specifications", "3 aspectdefs parsed",
             format("%.2f ms", ms_since(t0))});

  // 3. S2S weaver: static weave of monitoring probes.
  t0 = std::chrono::steady_clock::now();
  weaver.run("ProfileArguments", {dsl::Val::str("kernel")});
  t.add_row({"S2S compiler and weaver",
             format("%zu probe(s) woven", weaver.stats().inserts),
             format("%.2f ms", ms_since(t0))});

  // 4. Split compiler (offline half): iterative compilation.
  t0 = std::chrono::steady_clock::now();
  passes::Workload workload;
  workload.entry = "app";
  workload.make_args = [] {
    auto a = std::make_shared<std::vector<double>>(128, 1.2);
    return std::vector<vm::Value>{vm::Value::from_float_array(a),
                                  vm::Value::from_int(96), vm::Value::from_int(4)};
  };
  passes::IterativeCompiler explorer({"fold", "dce", "strength"});
  const auto offline = explorer.explore_exhaustive(*module, workload, 2);
  passes::PassManager pm(*module);
  pm.add_pipeline(offline.best_pipeline);
  pm.run_all();
  t.add_row({"split compiler (offline)",
             format("%zu pipelines explored, picked '%s'",
                    offline.evaluated.size(), offline.best_pipeline.c_str()),
             format("%.1f ms", ms_since(t0))});

  // 5. Runtime: load, arm dynamic weaving, run with the JIT manager.
  t0 = std::chrono::steady_clock::now();
  dsl::ProfileStore store;
  store.install(engine);
  engine.load_module(*module);
  weaver.run("SpecializeKernel", {dsl::Val::num(8), dsl::Val::num(256)});
  auto a = std::make_shared<std::vector<double>>(128, 1.2);
  for (int i = 0; i < 50; ++i)
    engine.call("app", {vm::Value::from_float_array(a), vm::Value::from_int(96),
                        vm::Value::from_int(2)});
  t.add_row({"runtime + JIT manager",
             format("%zu specialized version(s), %llu probe hits",
                    engine.version_count("kernel"),
                    static_cast<unsigned long long>(store.total_calls())),
             format("%.1f ms", ms_since(t0))});

  // 6. Autotuning control loop: converge a knob against VM instructions.
  // --strategy selects the search backend; "flat" is the committed baseline.
  t0 = std::chrono::steady_clock::now();
  tuner::DesignSpace space;
  space.add_knob({"size", {16, 32, 64, 96, 128}});
  tuner::Autotuner autotuner(
      std::move(space),
      antarex::search::make_strategy(
          antarex::bench::parse_strategy(argc, argv, "flat")));
  for (int i = 0; i < 8; ++i) {
    const auto& cfg = autotuner.next_configuration();
    engine.reset_instruction_count();
    engine.call("app", {vm::Value::from_float_array(a),
                        vm::Value::from_int(static_cast<i64>(
                            autotuner.space().value(cfg, "size"))),
                        vm::Value::from_int(1)});
    autotuner.report(
        {{"time_s", static_cast<double>(engine.executed_instructions())}});
  }
  t.add_row({"autotuning control loop",
             format("%zu configs learned, best size=%g",
                    autotuner.knowledge().distinct_configs(),
                    autotuner.space().value(*autotuner.best(), "size")),
             format("%.1f ms", ms_since(t0))});

  // 7. RTRM control loop: run a capped cluster with jobs.
  t0 = std::chrono::steady_clock::now();
  rtrm::ShardedClusterConfig ccfg;
  ccfg.base.governor = rtrm::GovernorPolicy::EnergyAware;
  ccfg.base.facility_cap_w = 800.0;
  rtrm::ShardedCluster cluster(ccfg);
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  cluster.add_node(60.0, {{cpu, {}}, {cpu, {}}});
  for (u64 id = 1; id <= 4; ++id) {
    rtrm::Job j;
    j.id = id;
    j.name = "hpc-job";
    j.units = 2.0;
    power::WorkloadModel w;
    w.cpu_gcycles = 30.0;
    w.cores_used = 12;
    w.mem_seconds = 0.2;
    j.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(j));
  }
  const bool drained = cluster.run_until_idle(2000.0);
  t.add_row({"RTRM control loop",
             format("%zu jobs done, peak %0.f W (cap 800), max %.0f C",
                    cluster.dispatcher().completed(),
                    cluster.telemetry().peak_it_power_w,
                    cluster.telemetry().max_temperature_c),
             format("%.1f ms", ms_since(t0))});
  t.print();

  bench::metric("iterations",
                static_cast<double>(cluster.dispatcher().completed()));
  bench::metric("peak_it_power_w", cluster.telemetry().peak_it_power_w);
  bench::metric("max_temperature_c", cluster.telemetry().max_temperature_c);
  bench::metric("kernel_versions",
                static_cast<double>(engine.version_count("kernel")));
  bench::verdict(
      "the Figure 1 flow is closed: DSL -> weave -> split-compile -> runtime "
      "autotuning + RTRM",
      format("all stages ran; cluster drained=%s under a power cap",
             drained ? "yes" : "NO"),
      drained && engine.version_count("kernel") >= 1 &&
          cluster.telemetry().peak_it_power_w <= 900.0);
  return 0;
}
