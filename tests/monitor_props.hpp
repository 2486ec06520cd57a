// Shared property-based invariant suite for antarex::monitor.
//
// Each seed builds a randomized monitored rtrm::ShardedCluster (8-24 nodes
// over 2-8 plant and fabric shards) under a randomized glitch/throttle/
// slowdown fault environment, runs it for a faulted window, and checks the
// monitoring invariants:
//   1. Frame accounting — every published frame is either delivered or
//      counted as dropped, and the aggregator saw exactly the delivered ones.
//   2. Detection quality — against the schedule's ground truth, the detector
//      scores >= 0.8 precision on the progress-drop kinds whenever it made a
//      claim, and >= 0.8 recall on throttles and slow nodes whenever the run
//      contained a qualifying (observable) episode of that kind.
//   3. Determinism — the health JSON and the per-kind scores are
//      byte-identical across 1/2/8 exec pool workers.
//   4. Bounded memory — the broker's and aggregator's footprint after the
//      run equals the footprint before any frame flowed: capacity-shaped,
//      never load-shaped.
//   5. Episode well-formedness — every episode names a real node, carries
//      the node's shard, and spans a non-negative interval.
//
// The suite is instantiated twice: test_fuzz.cpp pulls a small seed range
// into the default tier; test_monitor_long.cpp instantiates the 1k-seed
// sweep behind the `long` ctest label.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "monitor/monitor.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::monitor {

struct MonitorScenarioResult {
  std::size_t n_nodes = 0;
  u16 shards = 0;
  u64 samples = 0;
  u64 published = 0;
  u64 delivered = 0;
  u64 dropped = 0;
  u64 agg_frames = 0;
  std::size_t core_bytes_before = 0;  ///< broker + aggregator, pre-attach
  std::size_t core_bytes_after = 0;
  std::vector<Episode> episodes;
  EvalResult eval;
  std::string digest;  ///< health JSON + per-kind scores (determinism key)
};

/// One monitored faulted run at a given pool size. Everything inside is a
/// pure function of (seed, horizon); `threads` must not change any output.
/// Faults begin only after the warmup window (strip_warmup_faults): the
/// quality bounds below are steady-state properties, and bootstrap under
/// pre-existing faults is out of scope for the suite.
inline MonitorScenarioResult run_monitor_scenario(u64 seed, int threads) {
  telemetry::Registry::global().reset();
  Rng rng(seed * 0x9e3779b9ULL + 5);

  MonitorScenarioResult res;
  res.n_nodes = 8 + rng.index(17);          // 8..24
  res.shards = static_cast<u16>(2 + rng.index(7));  // 2..8

  rtrm::ShardedClusterConfig ccfg;
  ccfg.shards = res.shards;
  rtrm::ShardedCluster cluster(ccfg);
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < res.n_nodes; ++i)
    cluster.add_node(40.0, {{cpu, power::Variability{}}});
  // One long-running job per node, all ranks of the same application: the
  // shard-level baselines assume partition-homogeneous work (heterogeneous
  // jobs inflate the MAD until per-node deviations drown — by design, that
  // is what per-node detectors are for). Activity stays moderate so the
  // thermal guard never injects throttles of its own.
  power::WorkloadModel w;
  w.cpu_gcycles = 30.0 + 40.0 * rng.uniform();
  w.cores_used = 12;
  w.activity = 0.7;
  for (std::size_t j = 0; j < res.n_nodes; ++j) {
    rtrm::Job job;
    job.id = j + 1;
    job.name = "job" + std::to_string(job.id);
    job.units = 500.0;
    job.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }

  const double horizon_s = 60.0;
  fault::FaultModel model;
  model.glitch_rate_hz = 0.002;
  model.glitch_magnitude_j = 150.0;
  model.glitch_duration_s = 2.0;
  model.throttle_rate_hz = 0.002 + 0.003 * rng.uniform();
  model.throttle_duration_s = 8.0;
  model.slowdown_rate_hz = 0.001 + 0.003 * rng.uniform();
  model.slowdown_factor = 2.0;
  model.slowdown_duration_s = 12.0;

  FabricConfig fcfg;
  fcfg.shards = res.shards;
  MonitorFabric fabric(fcfg);
  fabric.attach(cluster);
  // Post-attach (subscriptions registered), pre-traffic: the capacity shape.
  res.core_bytes_before =
      fabric.broker().approx_bytes() + fabric.aggregator().approx_bytes();

  EvalConfig ecfg;
  ecfg.horizon_s = horizon_s;
  fault::FaultInjector injector(
      cluster, strip_warmup_faults(
                   fault::generate_schedule(model,
                                            static_cast<u32>(res.n_nodes), 1,
                                            horizon_s, seed),
                   ecfg.warmup_end_s));

  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);
  cluster.run_for(horizon_s, 0.25);

  res.samples = fabric.samples();
  res.published = fabric.broker().published();
  res.delivered = fabric.broker().delivered();
  res.dropped = fabric.broker().total_dropped();
  res.agg_frames = fabric.aggregator().frames();
  res.core_bytes_after =
      fabric.broker().approx_bytes() + fabric.aggregator().approx_bytes();
  res.episodes = fabric.detector().episodes();

  res.eval = evaluate(ground_truth(injector.schedule(), ecfg), res.episodes,
                      ecfg);

  res.digest = fabric.health_json();
  for (std::size_t k = 0; k < kAnomalyKindCount; ++k) {
    const KindScore& s = res.eval.kinds[k];
    res.digest += format("\n%s p=%.17g r=%.17g gt=%llu det=%llu",
                         anomaly_kind_name(static_cast<AnomalyKind>(k)),
                         s.precision(), s.recall(),
                         (unsigned long long)s.gt_qualifying,
                         (unsigned long long)s.detected);
  }
  return res;
}

class MonitorProps : public ::testing::TestWithParam<u64> {};

TEST_P(MonitorProps, MonitoringInvariantsHold) {
  const MonitorScenarioResult r = run_monitor_scenario(GetParam(), 1);

  // 1. Frame accounting: nothing vanishes between publish and aggregate.
  EXPECT_GT(r.samples, 0u);
  EXPECT_EQ(r.published, r.delivered + r.dropped);
  EXPECT_EQ(r.agg_frames, r.delivered);
  EXPECT_EQ(r.dropped, 0u)  // default queue depth fits a full shard's step
      << "shards=" << r.shards << " nodes=" << r.n_nodes;

  // 2. Detection quality on the progress-drop kinds.
  for (const AnomalyKind kind : {AnomalyKind::Throttle, AnomalyKind::SlowNode}) {
    const KindScore& s = r.eval.of(kind);
    EXPECT_GE(s.precision(), 0.8)
        << anomaly_kind_name(kind) << ": " << s.true_positives << "/"
        << s.detected << " detections matched ground truth";
    EXPECT_GE(s.recall(), 0.8)
        << anomaly_kind_name(kind) << ": " << s.gt_matched << "/"
        << s.gt_qualifying << " qualifying episodes found";
  }

  // 4. Capacity-shaped memory: a run's worth of traffic grows nothing.
  EXPECT_EQ(r.core_bytes_before, r.core_bytes_after);

  // 5. Well-formed episodes.
  for (const Episode& e : r.episodes) {
    EXPECT_LT(e.node, r.n_nodes);
    EXPECT_EQ(e.shard, e.node % r.shards);
    EXPECT_LE(e.open_t_s, e.close_t_s);
    EXPECT_GT(e.peak_z, 0.0);
  }
}

TEST_P(MonitorProps, ByteIdenticalAcrossPoolSizes) {
  // 3. The whole pipeline lives on the simulation thread; the exec pool only
  // parallelizes the plant, whose commits are serialized. Everything the
  // monitor reports must be a pure function of the seed.
  const MonitorScenarioResult r1 = run_monitor_scenario(GetParam(), 1);
  const MonitorScenarioResult r2 = run_monitor_scenario(GetParam(), 2);
  const MonitorScenarioResult r8 = run_monitor_scenario(GetParam(), 8);
  EXPECT_EQ(r1.digest, r2.digest);
  EXPECT_EQ(r1.digest, r8.digest);
}

}  // namespace antarex::monitor
