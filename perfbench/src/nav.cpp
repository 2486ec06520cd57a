// Workload `nav`: an open-loop route server (paper use case 2).
//
// Requests arrive as a seeded Poisson process at one fixed offered rate
// between random origin/destination pairs of a 64x64 grid city with ALT
// landmarks. When a request is due, the generator thread submits
// nav::shortest_path_td through exec::ThreadPool::async. The UC2 adaptive
// policy picks the heuristic inflation epsilon from a tuner::Monitor window
// over recent latencies. Latency counts from the request's due time, so a
// stalled generator or a queue backlog shows up in the tail; how late the
// generator ran is reported separately.
//
// Reference: a seeded sample of requests is re-run as exact time-dependent
// Dijkstra (astar = false); every sampled route must exist, be no faster
// than the exact one, and have quality <= 1.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exec/pool.hpp"
#include "nav/nav.hpp"
#include "support/rng.hpp"
#include "tuner/monitor.hpp"

namespace perfbench {
namespace {

using antarex::u32;
using antarex::u64;
using namespace antarex::nav;

constexpr int kGrid = 64;
constexpr int kLandmarks = 8;
// Offered load, fixed for the benchmark's lifetime: about 65% of what the
// pool sustained with exact routes at the commit that introduced it (~11.6k
// req/s with 3 workers on a 4-vCPU host).
constexpr double kRatePerSecond = 7500.0;
constexpr double kSlaMs = 10.0;  ///< adaptive policy's p95 latency target
constexpr std::size_t kSample = 400;

struct Input {
  RoadGraph graph;
  std::unique_ptr<Landmarks> landmarks;
  std::vector<double> due_s;     ///< offset from the start of the open loop
  std::vector<u32> from, to;
  std::vector<double> depart_s;  ///< time of day the route departs
  std::vector<std::size_t> sample;
};

/// Nodes of the largest connected component (the grid's streets are
/// two-way, so one undirected BFS labelling suffices).
std::vector<u32> giant_component(const RoadGraph& g) {
  std::vector<int> label(g.num_nodes(), -1);
  std::vector<u32> best, cur, queue;
  for (u32 s = 0; s < g.num_nodes(); ++s) {
    if (label[s] >= 0) continue;
    cur.clear();
    queue.assign(1, s);
    label[s] = static_cast<int>(s);
    while (!queue.empty()) {
      const u32 u = queue.back();
      queue.pop_back();
      cur.push_back(u);
      for (const auto& e : g.adj[u])
        if (label[e.to] < 0) {
          label[e.to] = static_cast<int>(s);
          queue.push_back(e.to);
        }
    }
    if (cur.size() > best.size()) best = cur;
  }
  std::sort(best.begin(), best.end());
  return best;
}

Input make_input(u64 seed, double seconds) {
  Input in;
  antarex::Rng rng(seed ^ 0x9a7c17ULL);
  in.graph = RoadGraph::grid_city(rng, kGrid, kGrid);
  in.landmarks = std::make_unique<Landmarks>(in.graph, kLandmarks, rng);
  const std::vector<u32> nodes = giant_component(in.graph);
  double t = 0.0;
  while (true) {
    t += rng.exponential(kRatePerSecond);
    if (t >= seconds) break;
    const u32 a = nodes[rng.index(nodes.size())];
    u32 b = a;
    while (b == a) b = nodes[rng.index(nodes.size())];
    in.due_s.push_back(t);
    in.from.push_back(a);
    in.to.push_back(b);
    in.depart_s.push_back(rng.uniform(0.0, 86400.0));
  }
  const std::size_t n = in.due_s.size();
  for (std::size_t i = 0; i < std::min(kSample, n); ++i) in.sample.push_back(rng.index(n));
  return in;
}

struct Served {
  double travel_s = 0.0;
  u64 expanded = 0;
  bool found = false;
  double latency_ms = 0.0;  ///< completion minus due time (what a user waits)
  double service_ms = 0.0;  ///< completion minus start on a worker
  double monitor_ms = 0.0;
};

}  // namespace

RunResult run_nav(const Options& opts, std::vector<double>* setup_s) {
  const Input in = timed_setup(opts.setup_reps, setup_s,
                               [&] { return make_input(opts.seed, opts.seconds); });
  const SpeedProfiles profiles;
  const std::size_t n = in.due_s.size();
  antarex::tuner::Monitor latency("perfbench.nav.latency_ms", 32);
  std::vector<Served> served(n);
  std::vector<double> eps_used(n, 1.0);
  std::vector<std::future<void>> done;
  done.reserve(n);
  std::atomic<std::size_t> completed{0};
  std::vector<double> lag_ms;
  lag_ms.reserve(n);
  double policy_ms = 0.0;
  std::atomic<std::int64_t> last_end_ns{0};
  // Declared after everything its tasks touch, so it joins before they go.
  // One core stays with the request generator: with every core running a
  // pool worker, the generator's own preemption dominated the tail.
  antarex::exec::ThreadPool pool(std::max(1, opts.threads - 1));

  const auto workers = static_cast<std::size_t>(pool.size());

  pool.reset_stats();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(in.due_s[i]));
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    lag_ms.push_back(1e3 * seconds_between(due, Clock::now()));

    double eps = 1.0;
    if (opts.adaptive) {
      const auto p0 = opts.trace ? Clock::now() : Clock::time_point{};
      const std::size_t backlog = i - completed.load(std::memory_order_relaxed);
      if (latency.samples() >= 8) {
        const double p95 = latency.window_percentile(95);
        if (p95 > kSlaMs || backlog > 8 * workers) eps = 3.0;
        else if (p95 > 0.6 * kSlaMs || backlog > 4 * workers) eps = 1.8;
      }
      if (opts.trace) policy_ms += 1e3 * seconds_between(p0, Clock::now());
    }
    eps_used[i] = eps;
    done.push_back(pool.async([&, i, due, eps] {
      const auto s0 = Clock::now();
      QueryOptions q;
      q.epsilon = eps;
      q.landmarks = in.landmarks.get();
      const Route r = shortest_path_td(in.graph, profiles, in.from[i], in.to[i],
                                       in.depart_s[i], q);
      const auto s1 = Clock::now();
      Served& out = served[i];
      out.travel_s = r.travel_time_s;
      out.expanded = r.expanded;
      out.found = r.found();
      out.latency_ms = 1e3 * seconds_between(due, s1);
      out.service_ms = 1e3 * seconds_between(s0, s1);
      if (opts.adaptive) {
        latency.push(out.latency_ms);
        if (opts.trace) out.monitor_ms = 1e3 * seconds_between(s1, Clock::now());
      }
      completed.fetch_add(1, std::memory_order_relaxed);
      const std::int64_t end_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(s1 - t0).count();
      std::int64_t prev = last_end_ns.load(std::memory_order_relaxed);
      while (prev < end_ns &&
             !last_end_ns.compare_exchange_weak(prev, end_ns, std::memory_order_relaxed)) {
      }
    }));
  }
  for (auto& f : done) f.get();
  const antarex::exec::PoolStats ps = pool.stats();

  RunResult res;
  res.attempted = n;
  res.timed_s = std::max(1e-9, 1e-9 * static_cast<double>(last_end_ns.load()));
  double route_ms = 0.0, monitor_ms = policy_ms, expanded = 0.0;
  res.latency_ms.reserve(n);
  std::vector<double> due_latency_ms;
  due_latency_ms.reserve(n);
  for (const Served& s : served) {
    res.latency_ms.push_back(s.service_ms);
    due_latency_ms.push_back(s.latency_ms);
    route_ms += s.service_ms;
    monitor_ms += s.monitor_ms;
    expanded += static_cast<double>(s.expanded);
    if (!s.found) ++res.failed;
  }
  res.work_s = route_ms / 1e3;
  if (res.failed > 0)
    res.errors.push_back(std::to_string(res.failed) + " request(s) found no route");

  // Reference check on the sample: exact time-dependent Dijkstra.
  std::vector<double> exact(in.sample.size(), 0.0);
  pool.parallel_for(in.sample.size(), 8, [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const std::size_t i = in.sample[k];
      QueryOptions q;
      q.astar = false;
      const Route r = shortest_path_td(in.graph, profiles, in.from[i], in.to[i],
                                       in.depart_s[i], q);
      exact[k] = r.found() ? r.travel_time_s : -1.0;
    }
  });
  double quality_sum = 0.0;
  std::size_t bad = 0;
  for (std::size_t k = 0; k < in.sample.size(); ++k) {
    const Served& s = served[in.sample[k]];
    const double q = s.travel_s > 0 ? exact[k] / s.travel_s : 0.0;
    if (exact[k] < 0 || !s.found || s.travel_s < exact[k] * (1.0 - 1e-12) || q > 1.0 + 1e-12)
      ++bad;
    quality_sum += q;
  }
  if (bad > 0)
    res.errors.push_back(std::to_string(bad) + " sampled route(s) disagree with exact Dijkstra");
  res.quality = in.sample.empty() ? 0.0 : quality_sum / static_cast<double>(in.sample.size());
  res.notes["route_quality"] = res.quality;
  res.notes["generator_lag_p99_ms"] = percentile(lag_ms, 99.0);
  double latency_sum = 0.0;
  for (double ms : due_latency_ms) latency_sum += ms;
  res.notes["route_share_of_latency"] = latency_sum > 0 ? route_ms / latency_sum : 0.0;
  res.notes["latency_from_due_p50_ms"] = percentile(due_latency_ms, 50);
  res.notes["latency_from_due_p99_ms"] = percentile(due_latency_ms, 99);
  double relaxed = 0.0;
  for (double e : eps_used) relaxed += e > 1.0 ? 1.0 : 0.0;
  res.notes["relaxed_share"] = n ? relaxed / static_cast<double>(n) : 0.0;

  auto& L = res.layers;
  L["nav.expanded"] = expanded;
  L["exec.steals"] = static_cast<double>(ps.steals);
  L["exec.queue_wait_ms"] = 1e3 * ps.mean_queue_wait_s();
  if (opts.trace) {
    L["nav.route_ms"] = route_ms;
    L["nav.expanded_per_s"] = route_ms > 0 ? expanded / (route_ms / 1e3) : 0.0;
    L["tuner.monitor_ms"] = monitor_ms;
    L["bench.generator_lag_ms"] = percentile(lag_ms, 99.0);
  }
  return res;
}

}  // namespace perfbench
