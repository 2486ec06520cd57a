// The repository benchmark program.
//
//   perfbench --workload <toolflow|fleet|nav|dock> --seed <n> --seconds <s>
//             --trace <0|1>
//   perfbench --selftest
//
// With --trace 0 the workload runs once, untraced, and the last stdout line
// is a JSON object carrying the end-to-end metrics. With --trace 1 it runs
// three times on a third of the budget each — untraced, with the benchmark's
// layer brackets on, untraced again — and the line carries the per-layer
// metrics of the traced pass, including the traced/untraced work-time gap as
// bench.trace_overhead_frac.
//
// --selftest runs every workload at reduced size twice at 4 workers and once
// at 1 worker and requires the deterministic layer counters to repeat
// exactly; it exits non-zero on any difference.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},   {"op_p50_ms", "ms"}, {"op_tail_ms", "ms"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"ok_frac", "frac"},
    {"quality", "score"},
};

constexpr MetricDef kPerLayer[] = {
    {"cir.parse_ms", "ms"},          {"cir.bytes", "count"},
    {"dsl.weave_ms", "ms"},          {"dsl.inserts", "count"},
    {"dsl.unrolls", "count"},        {"passes.search_ms", "ms"},
    {"passes.apply_ms", "ms"},       {"passes.candidates", "count"},
    {"passes.mismatched", "count"},  {"passes.useful_frac", "frac"},
    {"vm.run_ms", "ms"},             {"vm.instructions", "count"},
    {"vm.instr_per_s", "1/s"},       {"tuner.decide_ms", "ms"},
    {"tuner.evals", "count"},        {"tuner.monitor_ms", "ms"},
    {"rtrm.step_ms", "ms"},          {"rtrm.full_device_steps", "count"},
    {"rtrm.parked_share", "frac"},   {"rtrm.jobs_done", "count"},
    {"monitor.self_ms", "ms"},       {"monitor.fabric_self_ms", "ms"},
    {"monitor.frames", "count"},     {"monitor.episodes", "count"},
    {"govern.observer_ms", "ms"},    {"govern.epochs", "count"},
    {"govern.violations", "count"},  {"govern.redistributions", "count"},
    {"fault.observer_ms", "ms"},     {"fault.applied", "count"},
    {"power.it_energy_j", "J"},      {"nav.route_ms", "ms"},
    {"nav.expanded", "count"},       {"nav.expanded_per_s", "1/s"},
    {"dock.poses", "count"},         {"dock.busy_ms", "ms"},
    {"dock.poses_per_s", "1/s"},     {"dock.imbalance", "ratio"},
    {"exec.queue_wait_ms", "ms"},    {"exec.steals", "count"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.bracket_share", "frac"}, {"bench.generator_lag_ms", "ms"},
};

/// Counters that must repeat exactly across runs and worker counts.
constexpr const char* kDeterministic[] = {
    "vm.instructions", "passes.candidates", "rtrm.full_device_steps",
    "monitor.frames",  "nav.expanded",      "dock.poses",
    "power.it_energy_j",
};

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].first.name, finite(metrics[i].second),
                metrics[i].first.unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_notes(const char* label, const RunResult& r) {
  for (const auto& [k, v] : r.notes) std::printf("%s %s = %.6g\n", label, k.c_str(), v);
  for (const auto& e : r.errors) std::printf("%s CHECK FAILED: %s\n", label, e.c_str());
}

bool passed(const RunResult& r) { return r.errors.empty() && r.failed == 0; }

int run_untraced(const Workload& w, const Options& opts) {
  std::vector<double> setup_s;
  const RunResult r = w.run(opts, &setup_s);
  print_notes(w.name, r);
  const double ok_frac =
      r.attempted ? 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                  : 0.0;
  std::printf("%s: %llu ops in %.3f s; tail is p%g of %zu samples\n", w.name,
              static_cast<unsigned long long>(r.attempted), r.timed_s, w.tail_pct,
              r.latency_ms.size());
  std::printf("%s: latency ms p90 %.4g, p99 %.4g, p99.9 %.4g, max %.4g\n", w.name,
              percentile(r.latency_ms, 90), percentile(r.latency_ms, 99),
              percentile(r.latency_ms, 99.9), percentile(r.latency_ms, 100));
  const double values[] = {
      static_cast<double>(r.attempted - r.failed) / r.timed_s,
      median(r.latency_ms),
      percentile(r.latency_ms, w.tail_pct),
      median(setup_s),
      peak_rss_mb(),
      ok_frac,
      r.quality,
  };
  std::vector<std::pair<MetricDef, double>> metrics;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
    metrics.emplace_back(kEndToEnd[i], values[i]);
  print_result(passed(r), r.attempted, r.failed, metrics);
  return 0;
}

int run_traced(const Workload& w, Options opts) {
  // Untraced, traced, untraced on a third of the budget each: comparing the
  // traced pass with the mean of the two around it cancels warm-up and slow
  // drift of the host to first order.
  opts.seconds /= 3.0;
  std::vector<double> setup_s;
  opts.trace = false;
  const RunResult before = w.run(opts, &setup_s);
  opts.trace = true;
  RunResult traced = w.run(opts, &setup_s);
  opts.trace = false;
  const RunResult after = w.run(opts, &setup_s);
  for (const RunResult* r : {&before, &std::as_const(traced), &after}) print_notes(w.name, *r);
  const double plain_s = 0.5 * (before.work_s + after.work_s);
  traced.layers["bench.trace_overhead_frac"] =
      plain_s > 0 ? traced.work_s / plain_s - 1.0 : 0.0;
  std::vector<std::pair<MetricDef, double>> metrics;
  for (const MetricDef& m : kPerLayer) {
    const auto it = traced.layers.find(m.name);
    metrics.emplace_back(m, it == traced.layers.end() ? 0.0 : it->second);
  }
  print_result(passed(before) && passed(traced) && passed(after),
               before.attempted + traced.attempted + after.attempted,
               before.failed + traced.failed + after.failed, metrics);
  return 0;
}

int selftest() {
  struct Case {
    const char* workload;
    double seconds;
  };
  const Case cases[] = {{"toolflow", 0.25}, {"fleet", 0.5}, {"nav", 0.3}, {"dock", 0.3}};
  bool all_ok = true;
  for (const Case& c : cases) {
    const Workload& w = *find_workload(c.workload);
    Options opts;
    opts.seed = 7;
    opts.seconds = c.seconds;
    opts.adaptive = false;
    opts.setup_reps = 1;
    std::vector<double> setup_s;
    std::vector<RunResult> runs;
    for (int threads : {4, 4, 1}) {
      opts.threads = threads;
      runs.push_back(w.run(opts, &setup_s));
    }
    bool ok = true;
    for (const RunResult& r : runs) {
      if (!passed(r)) {
        ok = false;
        print_notes(c.workload, r);
      }
    }
    for (const char* key : kDeterministic) {
      const auto it = runs[0].layers.find(key);
      if (it == runs[0].layers.end()) continue;
      for (std::size_t i = 1; i < runs.size(); ++i) {
        const double v = runs[i].layers.at(key);
        if (v != it->second) {
          ok = false;
          std::printf("selftest %s: %s differs: %.17g vs %.17g (run %zu)\n",
                      c.workload, key, it->second, v, i);
        }
      }
      std::printf("selftest %s: %s = %.17g\n", c.workload, key, it->second);
    }
    if (runs[0].quality != runs[1].quality || runs[0].quality != runs[2].quality) {
      ok = false;
      std::printf("selftest %s: quality differs\n", c.workload);
    }
    std::printf("selftest %s: %s\n", c.workload, ok ? "PASS" : "FAIL");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <toolflow|fleet|nav|dock> --seed N "
               "--seconds S --trace 0|1\n"
               "       perfbench --selftest\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val, &end, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val, &end);
    } else if (arg == "--trace") {
      opts.trace = std::strtol(val, &end, 10) != 0;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || !(opts.seconds > 0.0)) return usage();
  return opts.trace ? run_traced(*w, opts) : run_untraced(*w, opts);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
