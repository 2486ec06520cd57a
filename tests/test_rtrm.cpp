// Tests for the runtime resource & power manager on rtrm::ShardedCluster:
// device execution, node aggregation, governors, the hierarchical power
// controllers, the thermal guard, job dispatch policies, and whole-cluster
// simulation invariants.
#include <gtest/gtest.h>

#include <initializer_list>

#include "rtrm/sharded_cluster.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::rtrm {

/// The plant's private job-lifecycle entry points, which its own stepping
/// only calls in a valid state; the tests call them out of turn.
struct PlantTestAccess {
  static void on_finished(ShardedCluster& c, u64 job_id, double now_s) {
    c.dispatcher().on_finished(job_id, now_s);
  }
  static void assign_device(ShardedCluster& c, u32 device,
                            const power::WorkloadModel& w, double units,
                            u64 job_id) {
    c.assign_device(device, w, units, job_id);
  }
};

namespace {

using power::DeviceSpec;
using power::DeviceType;
using power::WorkloadModel;

ShardedClusterConfig single_shard(ClusterConfig cfg = {}) {
  ShardedClusterConfig s;
  s.base = cfg;
  s.shards = 1;
  return s;
}

/// Appends a node of the given devices (default variability).
void add_node(ShardedCluster& c, std::initializer_list<DeviceSpec> devices,
              double base_w = 60.0) {
  std::vector<std::pair<u32, power::Variability>> devs;
  for (const DeviceSpec& spec : devices)
    devs.emplace_back(c.add_spec(spec), power::Variability{});
  c.add_node(base_w, devs);
}

WorkloadModel simple_work(double gcycles = 10.0, double mem_s = 0.0) {
  WorkloadModel w;
  w.cpu_gcycles = gcycles;
  w.mem_seconds = mem_s;
  w.cores_used = 12;
  w.activity = 0.9;
  return w;
}

Job cpu_job(u64 id, double units, WorkloadModel w = simple_work()) {
  Job j;
  j.id = id;
  j.name = "job" + std::to_string(id);
  j.units = units;
  j.profiles[DeviceType::Cpu] = w;
  return j;
}

/// Finish time of the last completed job.
double makespan(const ShardedCluster& c) {
  double finish = 0.0;
  for (const Job& j : c.dispatcher().completed_jobs())
    finish = std::max(finish, j.finish_time_s);
  return finish;
}

std::size_t top_op(const ShardedCluster& c) {
  return c.device_op_count(0, 0) - 1;
}

// --------------------------------------------------------------------------
// Device execution
// --------------------------------------------------------------------------

TEST(Device, BootsAtHighestPState) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell()});
  EXPECT_EQ(c.device_op_index(0, 0), top_op(c));
}

TEST(Device, CompletesWorkInPredictedTime) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell()});
  const WorkloadModel w = simple_work();
  const double unit_time =
      w.execution_time_s(c.spec(0).dvfs.at(c.device_op_index(0, 0)));
  c.submit(cpu_job(1, 4.0, w));
  ASSERT_TRUE(c.run_until_idle(100.0, 0.05));
  ASSERT_EQ(c.dispatcher().completed(), 1u);
  EXPECT_NEAR(c.dispatcher().completed_jobs()[0].finish_time_s,
              4.0 * unit_time, 0.06);
  EXPECT_FALSE(c.device_busy(0, 0));
  EXPECT_EQ(c.device_completed_jobs(0, 0), 1u);
}

TEST(Device, LowerFrequencyRunsLonger) {
  auto run = [](GovernorPolicy g) {
    ClusterConfig cfg;
    cfg.governor = g;
    ShardedCluster c(single_shard(cfg));
    add_node(c, {DeviceSpec::xeon_haswell()});
    c.submit(cpu_job(1, 1.0));
    EXPECT_TRUE(c.run_until_idle(100.0, 0.01));
    return makespan(c);
  };
  EXPECT_GT(run(GovernorPolicy::Powersave),
            2.0 * run(GovernorPolicy::Performance));
}

TEST(Device, AccumulatesEnergyAndHeatsUp) {
  ClusterConfig cfg;
  cfg.ambient_c = 22.0;
  ShardedCluster c(single_shard(cfg));
  add_node(c, {DeviceSpec::xeon_haswell()});
  const double t0 = c.device_temperature_c(0, 0);
  c.submit(cpu_job(1, 20.0, simple_work(200.0)));  // ~93 s at the top P-state
  c.run_for(50.0, 0.5);
  EXPECT_TRUE(c.device_busy(0, 0));  // still crunching after 50 s
  EXPECT_GT(c.device_energy_j(0, 0), 0.0);
  EXPECT_GT(c.device_temperature_c(0, 0), t0 + 10.0);
}

TEST(Device, CoolsBackDownWhenIdle) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell()});
  c.submit(cpu_job(1, 1.0, simple_work(200.0)));
  c.run_for(20.0, 0.5);  // finishes in ~4.6 s
  EXPECT_FALSE(c.device_busy(0, 0));
  const double hot = c.device_temperature_c(0, 0);
  c.run_for(100.0, 0.5);
  EXPECT_LT(c.device_temperature_c(0, 0), hot);
}

TEST(Device, IdleDrawsLittlePower) {
  // Same P-state (performance governor), one busy and one idle device.
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::Performance;
  ShardedCluster c(single_shard(cfg));
  add_node(c, {DeviceSpec::xeon_haswell()});
  add_node(c, {DeviceSpec::xeon_haswell()});
  c.submit(cpu_job(1, 1.0, simple_work(1000.0)));
  c.run_for(1.0, 1.0);
  ASSERT_TRUE(c.device_busy(0, 0));
  ASSERT_FALSE(c.device_busy(1, 0));
  EXPECT_LT(c.device_energy_j(1, 0), 0.35 * c.device_energy_j(0, 0));
}

TEST(Device, NeverTakesASecondJob) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell()});
  c.submit(cpu_job(1, 1.0, simple_work(1000.0)));
  c.submit(cpu_job(2, 1.0));
  c.run_for(1.0);
  EXPECT_EQ(c.dispatcher().running(), 1u);
  EXPECT_EQ(c.dispatcher().queued(), 1u);
  EXPECT_EQ(c.dispatcher().device_of(1), 0u);
  EXPECT_EQ(c.dispatcher().device_of(2), ShardedDispatcher::kInvalidDevice);
  // The device itself refuses a second job, whoever places it.
  EXPECT_THROW(PlantTestAccess::assign_device(c, 0, simple_work(), 1.0, 2),
               Error);
}

// --------------------------------------------------------------------------
// Governors
// --------------------------------------------------------------------------

TEST(Governor, PerformanceAndPowersave) {
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::Powersave;
  ShardedCluster c(single_shard(cfg));
  add_node(c, {DeviceSpec::xeon_haswell()});
  c.run_for(1.0);
  EXPECT_EQ(c.device_op_index(0, 0), 0u);
  c.set_governor(GovernorPolicy::Performance);
  c.run_for(1.0);
  EXPECT_EQ(c.device_op_index(0, 0), top_op(c));
}

TEST(Governor, OndemandTracksLoad) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell()});
  c.run_for(1.0);
  EXPECT_EQ(c.device_op_index(0, 0), 0u);  // idle -> min
  c.submit(cpu_job(1, 1.0, simple_work(1000.0)));
  c.run_for(1.0);
  EXPECT_EQ(c.device_op_index(0, 0), top_op(c));  // busy -> max
}

/// The energy-aware governor's P-state for one job on a one-device node with
/// `base_w` of always-on power (the node base power is the governor's
/// base-power share).
std::size_t energy_aware_op(WorkloadModel w, double base_w) {
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::EnergyAware;
  ShardedCluster c(single_shard(cfg));
  add_node(c, {DeviceSpec::xeon_haswell()}, base_w);
  c.submit(cpu_job(1, 1.0, w));
  c.run_for(0.25);
  EXPECT_TRUE(c.device_busy(0, 0));
  return c.device_op_index(0, 0);
}

TEST(Governor, EnergyAwarePicksInteriorPointForComputeBound) {
  // The device-level optimum lies strictly below the top P-state (leakage-
  // time tradeoff) — and for memory-bound work it is lower still.
  const std::size_t compute_idx = energy_aware_op(simple_work(1000.0), 0.0);
  ShardedCluster probe(single_shard());
  add_node(probe, {DeviceSpec::xeon_haswell()});
  EXPECT_LT(compute_idx, top_op(probe));
  EXPECT_LE(energy_aware_op(simple_work(10.0, 5.0), 0.0), compute_idx);
}

TEST(Governor, EnergyAwareBasePowerShareRaisesTheOptimum) {
  // Without a base-power share, device-only energy favours very low
  // frequencies (powersave-like). Charging the node's always-on power to the
  // job makes finishing sooner worthwhile: the chosen P-state must rise.
  EXPECT_GT(energy_aware_op(simple_work(1000.0), 60.0),
            energy_aware_op(simple_work(1000.0), 0.0));
}

TEST(Governor, EnergyAwareBeatsOndemandOnEnergyToSolution) {
  // Same job, same device; ondemand runs at max, energy-aware at optimum.
  // Device energy up to the job's completion.
  auto run = [](GovernorPolicy g) {
    ClusterConfig cfg;
    cfg.governor = g;
    ShardedCluster c(single_shard(cfg));
    add_node(c, {DeviceSpec::xeon_haswell()}, 0.0);
    c.submit(cpu_job(1, 1.0, simple_work(50.0, 0.4)));
    while (c.dispatcher().completed() == 0) c.run_for(0.05, 0.05);
    return c.device_energy_j(0, 0);
  };
  EXPECT_LT(run(GovernorPolicy::EnergyAware), run(GovernorPolicy::Ondemand));
}

// --------------------------------------------------------------------------
// Node
// --------------------------------------------------------------------------

TEST(Node, AggregatesPowerAndEnergy) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell(), DeviceSpec::xeon_haswell()}, 50.0);
  c.run_for(2.0, 2.0);
  const double p = c.node_power_w(0);
  EXPECT_GT(p, 50.0);  // base + idle devices
  EXPECT_DOUBLE_EQ(p, 50.0 + c.device_power_w(0) + c.device_power_w(1));
  EXPECT_NEAR(c.node_energy_j(0), p * 2.0, p * 0.2);  // temps drift slightly
}

TEST(Node, ReportsCompletions) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell()});
  c.submit(cpu_job(42, 1.0, simple_work(1.0)));
  ASSERT_TRUE(c.run_until_idle(10.0, 0.05));
  ASSERT_EQ(c.dispatcher().completed(), 1u);
  EXPECT_EQ(c.dispatcher().completed_jobs()[0].id, 42u);
  EXPECT_EQ(c.device_completed_jobs(0, 0), 1u);
}

// --------------------------------------------------------------------------
// Power controllers. Authority model: governors *propose* a P-state per
// device each control period; the node controller owns persistent
// per-device ceilings and clamps the proposal, so a budget violation lowers
// a ceiling that stays down until headroom returns.
// --------------------------------------------------------------------------

/// Node power of one busy device at the top P-state (30 W base).
double unconstrained_node_power() {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell()}, 30.0);
  c.submit(cpu_job(1, 1e6));
  c.run_for(0.25);
  return c.node_power_w(0);
}

/// A one-device node (30 W base) running a long job, with the node
/// controller applying `*budget_w` at the end of every control period.
struct BudgetedNode {
  explicit BudgetedNode(GovernorPolicy g, const double* budget_w)
      : cluster(single_shard([g] {
          ClusterConfig cfg;
          cfg.governor = g;
          cfg.control_period_s = 0.25;
          return cfg;
        }())) {
    add_node(cluster, {DeviceSpec::xeon_haswell()}, 30.0);
    cluster.submit(cpu_job(1, 1e6));
    cluster.set_control_hook([budget_w](ShardedCluster& c, double) {
      c.apply_node_budget(0, *budget_w);
    });
  }
  ShardedCluster cluster;
};

TEST(NodePowerControl, ThrottlesUntilUnderBudget) {
  const double budget = 0.6 * unconstrained_node_power();
  BudgetedNode n(GovernorPolicy::Performance, &budget);
  n.cluster.run_for(8.0, 0.25);
  EXPECT_LE(n.cluster.node_power_w(0), budget + 1.0);
  EXPECT_LT(n.cluster.device_op_index(0, 0), top_op(n.cluster));
  EXPECT_EQ(n.cluster.node_budget_w(0), budget);
}

TEST(NodePowerControl, RaisesCeilingWhenHeadroomReturns) {
  // Start throttled; with an unlimited budget the ceiling must recover all
  // the way up, so the performance governor's top proposal survives.
  double budget = 40.0;  // tiny: forces ceilings to the floor
  BudgetedNode n(GovernorPolicy::Performance, &budget);
  n.cluster.run_for(8.0, 0.25);
  EXPECT_EQ(n.cluster.device_op_index(0, 0), 0u);

  budget = 1e5;  // headroom returns
  n.cluster.run_for(8.0, 0.25);
  EXPECT_EQ(n.cluster.device_op_index(0, 0), top_op(n.cluster));
}

TEST(NodePowerControl, CeilingOverridesGovernorEveryPeriod) {
  // Ondemand re-proposes the top P-state every period; the persistent
  // ceiling must keep power bounded anyway.
  const double budget = 0.6 * unconstrained_node_power();
  BudgetedNode n(GovernorPolicy::Ondemand, &budget);
  n.cluster.run_for(16.0, 0.25);
  EXPECT_LE(n.cluster.node_power_w(0), budget + 1.0);
}

TEST(FacilityPowerManager, RespectsFacilityBudget) {
  auto build = [](ShardedCluster& c) {
    for (int i = 0; i < 4; ++i) add_node(c, {DeviceSpec::xeon_haswell()}, 30.0);
    for (u64 id = 1; id <= 4; ++id) c.submit(cpu_job(id, 1e6));
  };
  ShardedCluster free(single_shard());
  build(free);
  free.run_for(0.25);
  const double unconstrained = free.it_power_w();

  ClusterConfig cfg;
  cfg.facility_cap_w = 0.7 * unconstrained;
  cfg.control_period_s = 0.25;
  ShardedCluster capped(single_shard(cfg));
  build(capped);
  capped.run_for(16.0, 0.25);
  EXPECT_LE(capped.it_power_w(), 0.7 * unconstrained + 5.0);
  // The per-node allocations sum to about the budget.
  double alloc = 0.0;
  for (std::size_t i = 0; i < 4; ++i) alloc += capped.node_budget_w(i);
  EXPECT_NEAR(alloc, 0.7 * unconstrained, 1.0);
}

TEST(ThermalGuard, ThrottlesHotDevice) {
  telemetry::ScopedEnable telemetry_on;
  telemetry::Registry::global().reset();
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::Performance;
  cfg.t_crit_c = 60.0;  // artificially low limit
  cfg.ambient_c = 35.0;
  cfg.control_period_s = 0.5;
  ShardedCluster c(single_shard(cfg));
  add_node(c, {DeviceSpec::xeon_haswell()});
  c.submit(cpu_job(1, 1e6));
  c.run_for(200.0, 0.5);  // heat up at full tilt
  EXPECT_GT(
      telemetry::Registry::global().counter("rtrm.thermal_throttles").value(),
      0u);
  EXPECT_LT(c.device_temperature_c(0, 0), 60.0 + 8.0);  // held near the limit
}

// --------------------------------------------------------------------------
// Dispatcher
// --------------------------------------------------------------------------

Job make_job(u64 id, double units = 1.0) {
  Job j = cpu_job(id, units, simple_work(5.0));
  WorkloadModel gpu = simple_work(5.0);
  gpu.cores_used = 2496;  // much faster on the accelerator
  j.profiles[DeviceType::Gpu] = gpu;
  return j;
}

Job only_on(DeviceType type, Job j) {
  for (auto it = j.profiles.begin(); it != j.profiles.end();)
    it = it->first == type ? std::next(it) : j.profiles.erase(it);
  return j;
}

TEST(Dispatcher, PlacesFcfsOnFreeDevices) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell(), DeviceSpec::xeon_haswell()});
  for (u64 id = 1; id <= 3; ++id) c.submit(make_job(id, 1e4));
  c.run_for(0.25);
  EXPECT_EQ(c.dispatcher().running(), 2u);
  EXPECT_EQ(c.dispatcher().queued(), 1u);
}

TEST(Dispatcher, FastestFirstPrefersAccelerator) {
  ClusterConfig cfg;
  cfg.placement = PlacementPolicy::FastestFirst;
  ShardedCluster c(single_shard(cfg));
  add_node(c, {DeviceSpec::xeon_haswell(), DeviceSpec::gpgpu()});
  c.submit(make_job(1, 1e4));
  c.run_for(0.25);
  ASSERT_EQ(c.dispatcher().running(), 1u);
  EXPECT_TRUE(c.device_busy(0, 1));
  EXPECT_FALSE(c.device_busy(0, 0));
}

TEST(Dispatcher, RespectsDeviceCompatibility) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_phi()});
  c.submit(make_job(1));  // job runs on Cpu/Gpu only
  c.run_for(0.25);
  EXPECT_EQ(c.dispatcher().running(), 0u);
  EXPECT_EQ(c.dispatcher().queued(), 1u);
}

TEST(Dispatcher, BackfillLetsCompatibleJobsJumpTheQueue) {
  // Head needs the GPU (busy); a CPU-only job behind it must backfill onto
  // the free CPU instead of waiting (EASY: it cannot delay the head, which
  // is reserved on the GPU).
  auto run = [](bool backfill) {
    ClusterConfig cfg;
    cfg.backfill = backfill;
    auto c = std::make_unique<ShardedCluster>(single_shard(cfg));
    add_node(*c, {DeviceSpec::xeon_haswell(), DeviceSpec::gpgpu()});
    c->submit(only_on(DeviceType::Gpu, make_job(100, 1e6)));  // occupies GPU
    c->run_for(0.25);
    c->submit(only_on(DeviceType::Gpu, make_job(1)));
    c->submit(only_on(DeviceType::Cpu, make_job(2)));
    c->run_for(0.25);
    return c;
  };
  // FCFS: everything waits behind the GPU head.
  const auto fcfs = run(false);
  EXPECT_EQ(fcfs->dispatcher().running(), 1u);
  EXPECT_EQ(fcfs->dispatcher().queued(), 2u);

  // Backfill: the CPU job runs now.
  const auto easy = run(true);
  EXPECT_EQ(easy->dispatcher().running(), 2u);
  EXPECT_EQ(easy->dispatcher().queued(), 1u);
  EXPECT_EQ(easy->dispatcher().backfilled_jobs(), 1u);
  EXPECT_TRUE(easy->device_busy(0, 0));
}

TEST(Dispatcher, BackfillPreservesHeadPriority) {
  // When the head CAN start, backfill must not reorder anything.
  ClusterConfig cfg;
  cfg.backfill = true;
  ShardedCluster c(single_shard(cfg));
  add_node(c, {DeviceSpec::xeon_haswell()});
  c.submit(cpu_job(1, 1e4));
  c.submit(cpu_job(2, 1e4));
  c.run_for(0.25);
  ASSERT_EQ(c.dispatcher().running(), 1u);
  EXPECT_EQ(c.dispatcher().backfilled_jobs(), 0u);
  EXPECT_EQ(c.dispatcher().device_of(1), 0u);
}

TEST(Dispatcher, BackfillOnClusterImprovesThroughput) {
  auto run = [](bool backfill) {
    ClusterConfig cfg;
    cfg.backfill = backfill;
    ShardedCluster cluster(single_shard(cfg));
    add_node(cluster, {DeviceSpec::xeon_haswell(), DeviceSpec::gpgpu()});
    // Long GPU job, then another GPU job (blocks), then CPU jobs.
    for (u64 id = 1; id <= 2; ++id)
      cluster.submit(only_on(DeviceType::Gpu, make_job(id, 8.0)));
    for (u64 id = 3; id <= 5; ++id)
      cluster.submit(only_on(DeviceType::Cpu, make_job(id, 1.0)));
    EXPECT_TRUE(cluster.run_until_idle(50000.0, 0.25));
    double cpu_jobs_done = 0.0;
    for (const Job& j : cluster.dispatcher().completed_jobs())
      if (j.id >= 3) cpu_jobs_done = std::max(cpu_jobs_done, j.finish_time_s);
    return cpu_jobs_done;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Dispatcher, CompletionMovesJobToDone) {
  ShardedCluster c(single_shard());
  add_node(c, {DeviceSpec::xeon_haswell()});
  c.submit(make_job(7));
  ASSERT_TRUE(c.run_until_idle(100.0, 0.25));
  ASSERT_EQ(c.dispatcher().completed(), 1u);
  const Job& done = c.dispatcher().completed_jobs()[0];
  EXPECT_EQ(done.state, JobState::Done);
  EXPECT_DOUBLE_EQ(done.units_done, done.units);
  EXPECT_GT(done.finish_time_s, done.start_time_s);
  EXPECT_EQ(c.dispatcher().running(), 0u);
  EXPECT_EQ(c.dispatcher().device_of(7), ShardedDispatcher::kInvalidDevice);
  // A completion for a job that is not running is rejected.
  EXPECT_THROW(PlantTestAccess::on_finished(c, 7, 4.0), Error);
  EXPECT_EQ(c.dispatcher().completed(), 1u);
}

// --------------------------------------------------------------------------
// Cluster end-to-end
// --------------------------------------------------------------------------

TEST(Cluster, RunsJobsToCompletion) {
  ShardedCluster cluster(single_shard());
  add_node(cluster, {DeviceSpec::xeon_haswell()});
  for (u64 i = 1; i <= 3; ++i) cluster.submit(make_job(i, 0.5));

  ASSERT_TRUE(cluster.run_until_idle(500.0));
  EXPECT_EQ(cluster.dispatcher().completed(), 3u);
  EXPECT_GT(cluster.telemetry().it_energy_j, 0.0);
  EXPECT_GE(cluster.telemetry().facility_energy_j,
            cluster.telemetry().it_energy_j);
}

TEST(Cluster, EnergyAwareGovernorSavesEnergyOnSameJobs) {
  auto run = [](GovernorPolicy g) {
    ClusterConfig cfg;
    cfg.governor = g;
    ShardedCluster cluster(single_shard(cfg));
    add_node(cluster, {DeviceSpec::xeon_haswell()});
    Job j = only_on(DeviceType::Cpu, make_job(1, 4.0));
    j.profiles[DeviceType::Cpu].mem_seconds = 0.3;  // partly memory-bound
    cluster.submit(std::move(j));
    EXPECT_TRUE(cluster.run_until_idle(4000.0));
    return cluster.telemetry().it_energy_j;
  };
  EXPECT_LT(run(GovernorPolicy::EnergyAware), run(GovernorPolicy::Ondemand));
}

TEST(Cluster, FacilityCapHoldsPeakPower) {
  auto build = [](ShardedCluster& c) {
    add_node(c, {DeviceSpec::xeon_haswell(), DeviceSpec::xeon_haswell()});
    for (u64 i = 1; i <= 2; ++i)
      c.submit(only_on(DeviceType::Cpu, make_job(i, 50.0)));
  };
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::Performance;
  ShardedCluster uncapped(single_shard(cfg));
  build(uncapped);
  uncapped.run_for(30.0);
  const double peak_uncapped = uncapped.telemetry().peak_it_power_w;

  cfg.facility_cap_w = 0.7 * peak_uncapped;
  ShardedCluster capped(single_shard(cfg));
  build(capped);
  capped.run_for(60.0);
  // Transients are allowed (one control period); the bulk must respect it.
  EXPECT_LT(capped.telemetry().peak_it_power_w, peak_uncapped);
  EXPECT_LT(capped.it_power_w(), *cfg.facility_cap_w + 10.0);
}

TEST(Cluster, SummerAmbientWorsensFacilityEnergy) {
  auto run = [](double ambient) {
    ClusterConfig cfg;
    cfg.ambient_c = ambient;
    ShardedCluster cluster(single_shard(cfg));
    add_node(cluster, {DeviceSpec::xeon_haswell()});
    cluster.submit(only_on(DeviceType::Cpu, make_job(1, 5.0)));
    EXPECT_TRUE(cluster.run_until_idle(4000.0));
    return cluster.telemetry();
  };
  const auto winter = run(5.0);
  const auto summer = run(35.0);
  // Similar IT energy, clearly higher facility energy in summer.
  EXPECT_NEAR(summer.it_energy_j / winter.it_energy_j, 1.0, 0.1);
  EXPECT_GT(summer.facility_energy_j, 1.08 * winter.facility_energy_j);
}

TEST(Cluster, ThermalGuardKeepsDevicesUnderCritical) {
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::Performance;
  cfg.t_crit_c = 70.0;
  cfg.ambient_c = 35.0;
  ShardedCluster cluster(single_shard(cfg));
  add_node(cluster, {DeviceSpec::xeon_haswell()});
  cluster.submit(only_on(DeviceType::Cpu, make_job(1, 100.0)));
  cluster.run_for(300.0);
  EXPECT_LT(cluster.telemetry().max_temperature_c, 70.0 + 10.0);
}

}  // namespace
}  // namespace antarex::rtrm
