// Shared plumbing of the repository benchmark: options, the per-run result
// record, wall-clock brackets around calls into each src/ layer, and summary
// statistics.
//
// Tracing here is done only from benchmark code: a Tracer accumulates the
// wall time of brackets the benchmark places around its own calls into a
// layer. With tracing off a Bracket reads no clock, so untraced runs carry
// no bracket cost and the traced/untraced gap is the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// min(4, hardware threads).
int default_threads();

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< work budget; sizes each workload's fixed work
  bool trace = false;
  /// exec pool size: the 4 the benchmark was sized for, fewer on a smaller
  /// machine.
  int threads = default_threads();
  /// nav only: pick epsilon from the latency window (UC2 policy). The
  /// determinism self-test turns it off, because the window holds wall-clock
  /// latencies and would make the expansion count timing-dependent.
  bool adaptive = true;
  int setup_reps = 9;
};

/// Per-layer wall-time accumulator (milliseconds by layer name).
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  void add_ms(const std::string& layer, double ms) { ms_[layer] += ms; }
  double ms(const std::string& layer) const {
    const auto it = ms_.find(layer);
    return it == ms_.end() ? 0.0 : it->second;
  }
  double total_ms() const {
    double t = 0.0;
    for (const auto& [k, v] : ms_) t += v;
    return t;
  }

 private:
  bool on_;
  std::map<std::string, double> ms_;
};

/// Scoped bracket around one call into a layer. No clock read when off.
class Bracket {
 public:
  Bracket(Tracer& tracer, const char* layer) : tracer_(tracer), layer_(layer) {
    if (tracer_.on()) t0_ = Clock::now();
  }
  ~Bracket() {
    if (tracer_.on())
      tracer_.add_ms(layer_, 1e3 * seconds_between(t0_, Clock::now()));
  }
  Bracket(const Bracket&) = delete;
  Bracket& operator=(const Bracket&) = delete;

 private:
  Tracer& tracer_;
  const char* layer_;
  Clock::time_point t0_{};
};

/// Runs `make` `reps` times (at least once), appending each wall time to
/// `setup_s`, and returns the last result — so set-up time is a median over
/// repeats rather than one noisy sample.
template <typename F>
auto timed_setup(int reps, std::vector<double>* setup_s, F make) {
  auto t0 = Clock::now();
  auto value = make();
  setup_s->push_back(seconds_between(t0, Clock::now()));
  for (int i = 1; i < reps; ++i) {
    t0 = Clock::now();
    value = make();
    setup_s->push_back(seconds_between(t0, Clock::now()));
  }
  return value;
}

/// What one timed pass over a workload produced.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;  ///< one sample per op (or per request)
  double timed_s = 0.0;            ///< wall time of the timed phase
  /// Work time compared between the untraced and traced passes to get the
  /// tracing overhead: the timed wall for closed workloads, summed service
  /// time for the open-loop one (whose wall is fixed by its schedule).
  double work_s = 0.0;
  double quality = 0.0;            ///< workload's output-quality figure
  std::vector<std::string> errors; ///< failed correctness checks
  /// Layer counters (always collected) and, when traced, layer times.
  std::map<std::string, double> layers;
  /// Human-readable figures printed above the result line.
  std::map<std::string, double> notes;
};

/// A workload: set-up (timed separately, repeated) and one timed pass.
struct Workload {
  const char* name;
  /// Percentile reported as op_tail_ms; fixed per workload so its meaning
  /// does not drift with the sample count.
  double tail_pct;
  RunResult (*run)(const Options& opts, std::vector<double>* setup_s);
};

const Workload* find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

RunResult run_toolflow(const Options& opts, std::vector<double>* setup_s);
RunResult run_fleet(const Options& opts, std::vector<double>* setup_s);
RunResult run_nav(const Options& opts, std::vector<double>* setup_s);
RunResult run_dock(const Options& opts, std::vector<double>* setup_s);

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);
double geomean(const std::vector<double>& xs);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
