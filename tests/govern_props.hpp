// Shared property-based invariant suite for antarex::govern.
//
// Each seed builds a randomized ShardedCluster under a randomized cluster cap
// (with fault injection on half the seeds), runs it to drain with a
// CapCoordinator and a JobEnergyLedger attached, and checks the governance
// invariants:
//   1. Cap adherence — zero epoch violations, zero overshoot: with the
//      control period equal to the plant step the coordinator clamps before
//      any power is drawn, caps or crashes notwithstanding.
//   2. Budget conservation — at every step the per-node budgets sum to at
//      most the effective cap (cap minus guard), and right after a
//      renegotiation the alive nodes' budgets sum to exactly it. A node
//      crash mid-epoch therefore redistributes its share, never inflates the
//      total.
//   3. No joules lost — the coordinator's integrated consumption equals the
//      cluster's own IT energy ledger exactly, and the per-job ledger never
//      exceeds it (node base power is unattributed by design).
//   4. No lost jobs — the cluster drains; submitted == completed + failed.
//
// run_cap_scenario() also returns a full-precision trace of the loop (every
// epoch's mean power, DVFS ladder position and node budgets; final stats and
// ledger rows). tests/golden/govern_oracle_*.txt hold the same traces
// recorded from the coordinator's former implementation on the legacy
// object-model plant; test_govern compares them byte for byte.
//
// The suite is instantiated twice: test_fuzz.cpp pulls a small seed range
// into the default tier; test_govern_long.cpp instantiates the 1k-seed sweep
// behind the `long` ctest label.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "govern/govern.hpp"
#include "sharded_common.hpp"
#include "support/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::govern {

struct CapScenarioResult {
  u64 submitted = 0;
  u64 completed = 0;
  u64 failed = 0;
  bool drained = false;
  double cap_w = 0.0;
  double eff_cap_w = 0.0;
  double it_energy_j = 0.0;
  double consumed_j = 0.0;       ///< coordinator's own integration
  double ledger_j = 0.0;         ///< per-job attribution total
  CapStats stats;
  double worst_budget_sum_w = 0.0;  ///< max over steps of sum(node budgets)
  bool faults = false;
  std::string trace;  ///< the oracle trace (see the file comment)
};

/// Plant shape knobs the oracle varies; the props run the defaults. Two
/// devices per node make the controllers' priority victim order matter, and
/// a control period longer than the step lets transients reach the ladder.
struct CapScenarioShape {
  int devices_per_node = 1;
  double control_period_s = 0.25;
};

inline CapScenarioResult run_cap_scenario(u64 seed,
                                          CapScenarioShape shape = {}) {
  using rtrm::trace_detail::line;
  telemetry::Registry::global().reset();
  Rng rng(seed * 0x9e3779b9ULL + 17);

  rtrm::ShardedClusterConfig cfg;
  cfg.base.backfill = rng.bernoulli(0.5);
  cfg.base.control_period_s = shape.control_period_s;
  rtrm::ShardedCluster cluster(cfg);
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());

  const std::size_t n_nodes = 2 + rng.index(3);
  for (std::size_t i = 0; i < n_nodes; ++i)
    cluster.add_node(
        40.0, std::vector<std::pair<u32, power::Variability>>(
                  static_cast<std::size_t>(shape.devices_per_node),
                  {cpu, power::Variability{}}));

  const std::size_t n_jobs = 6 + rng.index(8);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    rtrm::Job job;
    job.id = j + 1;
    job.name = "job" + std::to_string(job.id);
    job.units = 1.0 + 3.0 * rng.uniform();
    job.priority = rng.bernoulli(0.25) ? 2.0 : 1.0;
    job.checkpoint_units = rng.bernoulli(0.5) ? 0.5 : 0.0;
    job.max_attempts = 2 + static_cast<int>(rng.index(3));
    power::WorkloadModel w;
    w.cpu_gcycles = 10.0 + 30.0 * rng.uniform();
    w.mem_seconds = 0.5 * rng.uniform();
    w.cores_used = 12;
    w.activity = 0.9;
    job.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }

  CapScenarioResult res;
  res.submitted = n_jobs;
  // 90-150 W per node spans tight-but-feasible to roomy; the per-node floor
  // (base 40 W + idle at the lowest P-state) sits well below the low end.
  res.cap_w = static_cast<double>(n_nodes) * (90.0 + 60.0 * rng.uniform());

  CapCoordinatorConfig gc;
  gc.cluster_cap_w = res.cap_w;
  gc.epoch_s = 1.0;
  gc.guard_fraction = 0.02 + 0.08 * rng.uniform();
  gc.fairness_alpha = 0.5 + rng.uniform();
  gc.use_priority = rng.bernoulli(0.75);
  res.eff_cap_w = res.cap_w * (1.0 - gc.guard_fraction);
  CapCoordinator coordinator(cluster, gc);
  auto dvfs = std::make_shared<DvfsActuator>(cluster);
  coordinator.add_actuator(dvfs);
  coordinator.attach();
  // Before the fault driver: a crash applied after a step must not hide
  // that step's draw from the ledger.
  JobEnergyLedger ledger(cluster);

  line(res.trace,
       "scenario seed=%llu nodes=%zu jobs=%zu cap=%.17g guard=%.17g "
       "alpha=%.17g priority=%d devices=%d control=%.17g\n",
       static_cast<unsigned long long>(seed), n_nodes, n_jobs, res.cap_w,
       gc.guard_fraction, gc.fairness_alpha, gc.use_priority ? 1 : 0,
       shape.devices_per_node, shape.control_period_s);
  u64 traced_epochs = 0;
  const auto trace_epochs = [&] {
    if (coordinator.stats().epochs == traced_epochs) return;
    traced_epochs = coordinator.stats().epochs;
    line(res.trace, "epoch %llu t=%.17g mean=%.17g dvfs=%zu budgets=",
         static_cast<unsigned long long>(traced_epochs), cluster.now_s(),
         coordinator.last_epoch_mean_w(), dvfs->steps());
    const auto& b = coordinator.node_budgets_w();
    for (std::size_t i = 0; i < b.size(); ++i)
      line(res.trace, "%s%.17g", i ? "," : "", b[i]);
    res.trace += "\n";
  };
  // Runs after the coordinator's own observer, so it sees post-renegotiation
  // budgets every step: their sum must never exceed the effective cap.
  cluster.add_step_observer([&](double, double, double) {
    double sum = 0.0;
    for (double b : coordinator.node_budgets_w()) sum += b;
    res.worst_budget_sum_w = std::max(res.worst_budget_sum_w, sum);
    trace_epochs();
  });

  res.faults = rng.bernoulli(0.5);
  std::unique_ptr<fault::FaultInjector> injector;
  const double horizon_s = 40.0;
  if (res.faults) {
    fault::FaultModel model;
    model.crash_mtbf_s = 20.0 + 40.0 * rng.uniform();
    model.crash_weibull_shape = 1.2;
    model.repair_mean_s = 4.0 + 8.0 * rng.uniform();
    injector = std::make_unique<fault::FaultInjector>(
        cluster, fault::generate_schedule(model, static_cast<u32>(n_nodes), 1,
                                          horizon_s, seed));
    cluster.run_for(horizon_s, 0.25);
  }
  res.drained = cluster.run_until_idle(5000.0, 0.25);
  coordinator.detach();
  trace_epochs();  // the partial final epoch detach() closed

  res.completed = cluster.dispatcher().completed();
  res.failed = cluster.dispatcher().failed();
  res.it_energy_j = cluster.telemetry().it_energy_j;
  res.stats = coordinator.stats();
  res.consumed_j = coordinator.stats().consumed_j;
  res.ledger_j = ledger.table().total_joules();

  const CapStats& s = res.stats;
  line(res.trace, "faults=%d drained=%d completed=%llu failed=%llu it_e=%.17g\n",
       res.faults ? 1 : 0, res.drained ? 1 : 0,
       static_cast<unsigned long long>(res.completed),
       static_cast<unsigned long long>(res.failed), res.it_energy_j);
  line(res.trace,
       "stats epochs=%llu violations=%llu worst_overshoot=%.17g "
       "consumed=%.17g restricts=%llu relaxes=%llu redistributions=%llu\n",
       static_cast<unsigned long long>(s.epochs),
       static_cast<unsigned long long>(s.violations), s.worst_overshoot_w,
       s.consumed_j, static_cast<unsigned long long>(s.restricts),
       static_cast<unsigned long long>(s.relaxes),
       static_cast<unsigned long long>(s.redistributions));
  line(res.trace,
       "actuator %s steps=%zu max_steps=%zu level=%.17g step_down=%zu\n",
       dvfs->name().c_str(), dvfs->steps(), dvfs->max_steps(), dvfs->level(),
       cluster.op_step_down());
  for (const auto& row : ledger.table().rows())
    line(res.trace, "ledger %s joules=%.17g seconds=%.17g samples=%llu\n",
         row.key.c_str(), row.joules, row.seconds,
         static_cast<unsigned long long>(row.samples));
  line(res.trace, "ledger_total=%.17g\n", res.ledger_j);
  return res;
}

class CapGovernanceProps : public ::testing::TestWithParam<u64> {};

TEST_P(CapGovernanceProps, CapBudgetAndLedgerInvariantsHold) {
  const CapScenarioResult r = run_cap_scenario(GetParam());

  // 1. Cap adherence: no epoch ever averaged above the cap.
  EXPECT_EQ(r.stats.violations, 0u)
      << "cap " << r.cap_w << " W exceeded (faults=" << r.faults << ")";
  EXPECT_DOUBLE_EQ(r.stats.worst_overshoot_w, 0.0);
  EXPECT_GT(r.stats.epochs, 0u);

  // 2. Budget conservation: node budgets never sum past the effective cap,
  //    so a crash (redistribution) can only move share, not mint it.
  EXPECT_LE(r.worst_budget_sum_w, r.eff_cap_w * (1.0 + 1e-9));
  EXPECT_GT(r.worst_budget_sum_w, 0.0);

  // 3. No joules lost: the coordinator's integration matches the cluster's
  //    energy ledger exactly, and the job ledger is a subset of it.
  const double denom = std::max(1.0, std::fabs(r.it_energy_j));
  EXPECT_LT(std::fabs(r.it_energy_j - r.consumed_j) / denom, 1e-9);
  EXPECT_LE(r.ledger_j, r.it_energy_j * (1.0 + 1e-9));

  // 4. No lost jobs.
  EXPECT_TRUE(r.drained) << "cluster failed to drain under the cap";
  EXPECT_EQ(r.submitted, r.completed + r.failed);
}

}  // namespace antarex::govern
