// Shared property-based invariant suite for antarex::govern.
//
// Each seed builds a randomized cluster under a randomized cluster cap (with
// fault injection on half the seeds), runs it to drain with a CapCoordinator
// attached, and checks the governance invariants:
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
};

inline CapScenarioResult run_cap_scenario(u64 seed) {
  telemetry::Registry::global().reset();
  Rng rng(seed * 0x9e3779b9ULL + 17);

  rtrm::ClusterConfig cfg;
  cfg.backfill = rng.bernoulli(0.5);
  cfg.control_period_s = 0.25;  // == dt: clamp before every plant step
  rtrm::Cluster cluster(cfg);

  const std::size_t n_nodes = 2 + rng.index(3);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    rtrm::Node node("n" + std::to_string(i), 40.0);
    node.add_device(rtrm::Device("n" + std::to_string(i) + "-cpu",
                                 power::DeviceSpec::xeon_haswell()));
    cluster.add_node(std::move(node));
  }

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
  coordinator.add_actuator(std::make_shared<DvfsActuator>(cluster));
  coordinator.attach();

  // Runs after the coordinator's own observer, so it sees post-renegotiation
  // budgets every step: their sum must never exceed the effective cap.
  cluster.add_step_observer([&](double, double, double) {
    double sum = 0.0;
    for (double b : coordinator.node_budgets_w()) sum += b;
    res.worst_budget_sum_w = std::max(res.worst_budget_sum_w, sum);
  });

  res.faults = rng.bernoulli(0.5);
  std::unique_ptr<fault::FaultInjector<rtrm::Cluster>> injector;
  const double horizon_s = 40.0;
  if (res.faults) {
    fault::FaultModel model;
    model.crash_mtbf_s = 20.0 + 40.0 * rng.uniform();
    model.crash_weibull_shape = 1.2;
    model.repair_mean_s = 4.0 + 8.0 * rng.uniform();
    injector = std::make_unique<fault::FaultInjector<rtrm::Cluster>>(
        cluster, fault::generate_schedule(model, static_cast<u32>(n_nodes), 1,
                                          horizon_s, seed));
    cluster.run_for(horizon_s, 0.25);
  }
  res.drained = cluster.run_until_idle(5000.0, 0.25);
  coordinator.detach();

  res.completed = cluster.dispatcher().completed();
  res.failed = cluster.dispatcher().failed();
  res.it_energy_j = cluster.telemetry().it_energy_j;
  res.stats = coordinator.stats();
  res.consumed_j = coordinator.stats().consumed_j;
  res.ledger_j = coordinator.job_energy().total_joules();
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
