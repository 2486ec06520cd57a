// Shared property-based invariant suite for rtrm::ShardedCluster.
//
// Each seed builds a randomized heterogeneous blueprint + job mix + fault
// environment, runs it through the SoA engine, and checks the four core
// sharding invariants:
//   1. Energy conservation — the integrated IT energy equals the sum of the
//      per-node batched energy counters to 1e-9 relative (parking replays
//      skipped accumulations exactly, it never invents or drops joules).
//   2. No lost jobs — every submitted job is accounted for in exactly one
//      dispatcher bucket after the drain phase.
//   3. Monotone virtual time — step observers and applied fault events see
//      strictly/weakly increasing timestamps.
//   4. Shard-merge determinism — the same scenario re-run with different
//      shard and worker counts produces a byte-identical state trace.
//
// The suite is instantiated twice: test_fuzz.cpp pulls a small seed range
// into the default tier; test_sharded_long.cpp instantiates the 1k-seed
// sweep behind the `long` ctest label.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "exec/pool.hpp"
#include "fault/injector.hpp"
#include "sharded_common.hpp"

namespace antarex::rtrm {

struct ShardedScenarioResult {
  u64 submitted = 0;
  u64 accounted = 0;  ///< queued + running + completed + failed at the end
  bool drained = false;
  double it_energy_j = 0.0;
  double node_energy_sum_j = 0.0;
  bool monotone_steps = true;
  bool monotone_events = true;
  std::string trace;
};

/// One randomized scenario at an explicit (shards, threads) point. The
/// plant, jobs, and faults depend only on `seed`, so two calls with the same
/// seed but different shard/thread counts must return identical traces.
inline ShardedScenarioResult run_sharded_scenario(u64 seed, std::size_t shards,
                                                  int threads) {
  Rng rng(seed * 0x9e3779b9ULL + 1);

  ShardedClusterConfig cfg;
  cfg.shards = shards;
  cfg.base.backfill = rng.bernoulli(0.5);
  const std::size_t placement = rng.index(3);
  cfg.base.placement = placement == 0   ? PlacementPolicy::FirstFit
                       : placement == 1 ? PlacementPolicy::FastestFirst
                                        : PlacementPolicy::EnergyAware;
  const std::size_t governor = rng.index(4);
  cfg.base.governor = governor == 0   ? GovernorPolicy::Performance
                      : governor == 1 ? GovernorPolicy::Powersave
                      : governor == 2 ? GovernorPolicy::Ondemand
                                      : GovernorPolicy::EnergyAware;
  const std::size_t n_nodes = 8 + rng.index(9);
  if (rng.bernoulli(0.3))
    cfg.base.facility_cap_w = (90.0 + 60.0 * rng.uniform()) *
                              static_cast<double>(n_nodes);
  ShardedCluster cluster(cfg);
  ClusterBlueprint::exascale(seed, n_nodes).build(cluster);

  const std::size_t n_jobs = 8 + rng.index(12);
  submit_job_mix(cluster, seed, n_jobs);

  const double horizon_s = 30.0;
  const bool faulted = rng.bernoulli(0.7);
  std::optional<fault::FaultInjector> driver;
  if (faulted)
    driver.emplace(cluster, make_fault_schedule(n_nodes, horizon_s, seed));

  ShardedScenarioResult res;
  double last_now = 0.0;
  cluster.add_step_observer([&](double now, double, double) {
    if (now <= last_now) res.monotone_steps = false;
    last_now = now;
  });

  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);
  cluster.run_for(horizon_s, 0.25);
  // Past the horizon only repair/clear/end events remain, so the drain
  // phase converges: crashed nodes come back and every job finishes or
  // exhausts its retry budget.
  res.drained = cluster.run_until_idle(5000.0, 0.25);

  res.submitted = n_jobs;
  res.accounted = cluster.dispatcher().queued() + cluster.dispatcher().running() +
                  cluster.dispatcher().completed() + cluster.dispatcher().failed();
  res.it_energy_j = cluster.telemetry().it_energy_j;
  for (std::size_t i = 0; i < cluster.node_count(); ++i)
    res.node_energy_sum_j += cluster.node_energy_j(i);

  if (driver) {
    double last_event_s = 0.0;
    for (std::size_t i = 0; i < driver->applied(); ++i) {
      const double t = driver->schedule().events[i].at_s;
      if (t < last_event_s) res.monotone_events = false;
      last_event_s = t;
    }
  }
  res.trace = state_trace(cluster);
  return res;
}

class ShardedClusterProps : public ::testing::TestWithParam<u64> {};

TEST_P(ShardedClusterProps, ShardingInvariantsHold) {
  const u64 seed = GetParam();
  const ShardedScenarioResult r =
      run_sharded_scenario(seed, 1 + seed % 6, 1 + static_cast<int>(seed % 3));

  // 1. Energy conservation to 1e-9 relative.
  const double denom = std::max(1.0, std::fabs(r.it_energy_j));
  EXPECT_LT(std::fabs(r.it_energy_j - r.node_energy_sum_j) / denom, 1e-9);

  // 2. No lost jobs.
  EXPECT_TRUE(r.drained) << "cluster failed to drain after the fault window";
  EXPECT_EQ(r.submitted, r.accounted);

  // 3. Monotone virtual time.
  EXPECT_TRUE(r.monotone_steps);
  EXPECT_TRUE(r.monotone_events);

  // 4. Shard-merge determinism: a serial single-shard run and a different
  // parallel sharding both reproduce the trace byte-for-byte.
  const ShardedScenarioResult serial = run_sharded_scenario(seed, 1, 1);
  EXPECT_EQ(serial.trace, r.trace) << "seed=" << seed;
  const ShardedScenarioResult wide =
      run_sharded_scenario(seed, 4 + seed % 13, 8);
  EXPECT_EQ(serial.trace, wide.trace) << "seed=" << seed;
}

}  // namespace antarex::rtrm
