// antarex::govern: actuator ladders, the hierarchical cap coordinator's
// budget split and priority weighting (node shares and device victim order),
// fault composition, the job ledger, determinism of the
// whole loop across pool sizes, and byte-for-byte agreement with the
// recorded oracle traces (tests/golden/govern_oracle_*.txt).
#include "govern/govern.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "govern_props.hpp"
#include "nav/nav.hpp"
#include "nav/server.hpp"
#include "sharded_common.hpp"
#include "support/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace antarex;
using namespace antarex::govern;

class GovernTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::Registry::global().reset();
  }
  void TearDown() override { telemetry::set_enabled(false); }
};

void build_nodes(rtrm::ShardedCluster& cluster, std::size_t n_nodes,
                 std::size_t devices_per_node = 1) {
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < n_nodes; ++i)
    cluster.add_node(40.0, std::vector<std::pair<u32, power::Variability>>(
                               devices_per_node, {cpu, power::Variability{}}));
}

rtrm::ShardedClusterConfig plant_config(rtrm::ClusterConfig base = {}) {
  base.control_period_s = 0.25;
  rtrm::ShardedClusterConfig cfg;
  cfg.base = base;
  return cfg;
}

void submit_jobs(rtrm::ShardedCluster& cluster, int count,
                 double priority = 1.0, u64 first_id = 1) {
  for (int j = 0; j < count; ++j) {
    rtrm::Job job;
    job.id = first_id + static_cast<u64>(j);
    job.name = "job" + std::to_string(job.id);
    job.units = 4.0;
    job.priority = priority;
    power::WorkloadModel w;
    w.cpu_gcycles = 30.0;
    w.mem_seconds = 0.3;
    w.cores_used = 12;
    w.activity = 0.9;
    job.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }
}

// --- actuators --------------------------------------------------------------

TEST_F(GovernTest, DvfsActuatorWalksTheFullLadderAndBack) {
  rtrm::ShardedCluster cluster(plant_config());
  build_nodes(cluster, 1);
  DvfsActuator dvfs(cluster);
  // xeon_haswell has 13 P-states: 12 notches below nominal.
  EXPECT_EQ(dvfs.max_steps(), 12u);
  EXPECT_DOUBLE_EQ(dvfs.level(), 1.0);

  std::size_t restricts = 0;
  while (dvfs.restrict()) ++restricts;
  EXPECT_EQ(restricts, 12u);
  EXPECT_EQ(cluster.op_step_down(), 12u);
  EXPECT_DOUBLE_EQ(dvfs.level(), 0.0);
  EXPECT_FALSE(dvfs.restrict()) << "bottom of the ladder must refuse";

  dvfs.reset();
  EXPECT_EQ(cluster.op_step_down(), 0u);
  EXPECT_DOUBLE_EQ(dvfs.level(), 1.0);
  EXPECT_FALSE(dvfs.relax()) << "nominal must refuse to relax";
  EXPECT_EQ(telemetry::Registry::global()
                .counter("govern.actuator_restricts")
                .value(),
            12u);
}

TEST_F(GovernTest, NavActuatorHalvesTheAdmissionWindow) {
  Rng rng(11);
  const nav::RoadGraph graph = nav::RoadGraph::grid_city(rng, 4, 4);
  nav::SpeedProfiles profiles;
  nav::NavServer server(graph, profiles);

  NavActuator shed(server, /*nominal_window=*/16, /*min_window=*/2);
  EXPECT_EQ(server.admission_cap(), 16u);
  EXPECT_EQ(shed.max_steps(), 3u);  // 16 -> 8 -> 4 -> 2

  EXPECT_TRUE(shed.restrict());
  EXPECT_EQ(server.admission_cap(), 8u);
  EXPECT_TRUE(shed.restrict());
  EXPECT_TRUE(shed.restrict());
  EXPECT_EQ(server.admission_cap(), 2u);
  EXPECT_EQ(shed.window(), 2u);
  EXPECT_FALSE(shed.restrict()) << "window floor reached";

  shed.reset();
  EXPECT_EQ(server.admission_cap(), 16u);
}

// --- cap coordinator --------------------------------------------------------

TEST_F(GovernTest, BudgetsConserveTheEffectiveCap) {
  rtrm::ShardedCluster cluster(plant_config());
  build_nodes(cluster, 3);
  submit_jobs(cluster, 6);
  CapCoordinatorConfig cfg;
  cfg.cluster_cap_w = 360.0;
  cfg.guard_fraction = 0.05;
  CapCoordinator coordinator(cluster, cfg);
  coordinator.attach();
  cluster.run_for(10.0, 0.25);

  double sum = 0.0;
  for (double b : coordinator.node_budgets_w()) {
    EXPECT_GT(b, 0.0);
    sum += b;
  }
  EXPECT_NEAR(sum, 360.0 * 0.95, 1e-6);
  EXPECT_EQ(coordinator.stats().epochs, 10u);
  EXPECT_EQ(coordinator.stats().violations, 0u);
  EXPECT_GT(coordinator.last_epoch_mean_w(), 0.0);
  coordinator.detach();
}

TEST_F(GovernTest, PriorityJobsEarnTheirNodeALargerBudget) {
  rtrm::ShardedCluster cluster(plant_config());
  build_nodes(cluster, 2);
  // Node 0 runs the priority-4 job, node 1 the priority-1 job; with identical
  // workloads the weighted split must favour node 0.
  submit_jobs(cluster, 1, /*priority=*/4.0, /*first_id=*/1);
  submit_jobs(cluster, 1, /*priority=*/1.0, /*first_id=*/2);
  CapCoordinatorConfig cfg;
  cfg.cluster_cap_w = 220.0;  // tight enough that the split matters
  cfg.use_priority = true;
  CapCoordinator coordinator(cluster, cfg);
  coordinator.attach();
  cluster.run_for(5.0, 0.25);

  const std::vector<double>& budgets = coordinator.node_budgets_w();
  ASSERT_EQ(budgets.size(), 2u);
  EXPECT_GT(budgets[0], budgets[1])
      << "priority weighting must favour the node running the heavier job";
  EXPECT_EQ(coordinator.stats().violations, 0u);
  coordinator.detach();
}

TEST_F(GovernTest, CrashRedistributesTheDeadNodesShare) {
  rtrm::ShardedCluster cluster(plant_config());
  build_nodes(cluster, 3);
  submit_jobs(cluster, 9);
  CapCoordinatorConfig cfg;
  cfg.cluster_cap_w = 330.0;
  CapCoordinator coordinator(cluster, cfg);
  coordinator.attach();
  cluster.run_for(3.0, 0.25);

  const double before_n1 = coordinator.node_budgets_w()[1];
  cluster.fail_node(0);
  cluster.run_for(1.0, 0.25);

  const std::vector<double>& budgets = coordinator.node_budgets_w();
  EXPECT_DOUBLE_EQ(budgets[0], 0.0) << "dead node must hold no budget";
  EXPECT_GT(budgets[1], before_n1) << "survivors inherit the freed share";
  EXPECT_GE(coordinator.stats().redistributions, 1u);
  double sum = 0.0;
  for (double b : budgets) sum += b;
  EXPECT_NEAR(sum, 330.0 * (1.0 - cfg.guard_fraction), 1e-6);

  cluster.repair_node(0);
  cluster.run_for(1.0, 0.25);
  EXPECT_GT(coordinator.node_budgets_w()[0], 0.0)
      << "repaired node re-enters the split";
  EXPECT_EQ(coordinator.stats().violations, 0u);
  coordinator.detach();
}

TEST_F(GovernTest, DetachStopsActuationAndReattachDoesNotDoubleCount) {
  rtrm::ShardedCluster cluster(plant_config());
  build_nodes(cluster, 2);
  submit_jobs(cluster, 4);
  CapCoordinatorConfig cfg;
  cfg.cluster_cap_w = 200.0;
  CapCoordinator coordinator(cluster, cfg);
  coordinator.attach();
  cluster.run_for(4.0, 0.25);
  coordinator.detach();
  const double consumed_attached = coordinator.stats().consumed_j;
  EXPECT_GT(consumed_attached, 0.0);

  // Detached: the loop neither accounts nor clamps.
  cluster.run_for(2.0, 0.25);
  EXPECT_DOUBLE_EQ(coordinator.stats().consumed_j, consumed_attached);

  // Re-attach: exactly one live observer, so attached-time integration must
  // match the cluster's own ledger over the attached windows.
  const double before_j = cluster.telemetry().it_energy_j;
  coordinator.attach();
  cluster.run_for(2.0, 0.25);
  coordinator.detach();
  const double window_j = cluster.telemetry().it_energy_j - before_j;
  EXPECT_NEAR(coordinator.stats().consumed_j - consumed_attached, window_j,
              1e-6);
}

TEST_F(GovernTest, JobLedgerIsOrderedAndBounded) {
  rtrm::ShardedCluster cluster(plant_config());
  build_nodes(cluster, 2);
  submit_jobs(cluster, 4);
  CapCoordinatorConfig cfg;
  cfg.cluster_cap_w = 240.0;
  CapCoordinator coordinator(cluster, cfg);
  coordinator.attach();
  JobEnergyLedger ledger(cluster);
  cluster.run_until_idle(500.0, 0.25);
  coordinator.detach();

  const double total = ledger.table().total_joules();
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, cluster.telemetry().it_energy_j * (1.0 + 1e-9))
      << "base power is unattributed, so the ledger is a strict subset";
  const auto rows = ledger.table().rows();
  ASSERT_EQ(rows.size(), 4u) << "one row per job, keyed by name";
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_GE(rows[i - 1].joules, rows[i].joules) << "rows sort joules-desc";
  const std::string dump = coordinator.json();
  EXPECT_NE(dump.find("antarex.govern.capreport/v2"), std::string::npos);
  EXPECT_NE(dump.find("\"violations\":0"), std::string::npos);
}

// --- determinism ------------------------------------------------------------

// The full loop (cap + faults) must be byte-identical across pool sizes: all
// coordinator callbacks run on the simulation thread from serially committed
// state.
std::string governed_fingerprint(int threads) {
  telemetry::Registry::global().reset();
  rtrm::ClusterConfig ccfg;
  ccfg.backfill = true;
  rtrm::ShardedCluster cluster(plant_config(ccfg));
  build_nodes(cluster, 4);
  submit_jobs(cluster, 12);
  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);

  CapCoordinatorConfig cfg;
  cfg.cluster_cap_w = 420.0;
  CapCoordinator coordinator(cluster, cfg);
  coordinator.add_actuator(std::make_shared<DvfsActuator>(cluster));
  coordinator.attach();
  JobEnergyLedger ledger(cluster);

  fault::FaultModel model;
  model.crash_mtbf_s = 60.0;
  model.repair_mean_s = 6.0;
  fault::FaultInjector injector(cluster,
                                fault::generate_schedule(model, 4, 1, 30.0, 5));
  cluster.run_for(30.0, 0.25);
  cluster.run_until_idle(2000.0, 0.25);
  coordinator.detach();
  std::string out = coordinator.json() + "\n" + rtrm::state_trace(cluster);
  char buf[160];
  for (const auto& row : ledger.table().rows()) {
    std::snprintf(buf, sizeof(buf), "%s %.17g %.17g\n", row.key.c_str(),
                  row.joules, row.seconds);
    out += buf;
  }
  return out;
}

TEST_F(GovernTest, GovernedRunIsDeterministicAcrossPoolSizes) {
  const std::string one = governed_fingerprint(1);
  const std::string two = governed_fingerprint(2);
  const std::string eight = governed_fingerprint(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find("\"violations\":0"), std::string::npos);
}

// govern_props.hpp brings the seed-sweep suite along with run_cap_scenario;
// its seeds are instantiated in test_fuzz and test_govern_long.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(CapGovernanceProps);

// --- plant hooks ------------------------------------------------------------

// Over budget, the node controller lowers the device with the highest
// power/weight: a device running a priority-2 job is clamped only after an
// equal-power neighbour running a priority-1 job.
std::pair<std::size_t, std::size_t> ops_after_first_clamp(bool use_priority) {
  rtrm::ShardedCluster probe(plant_config());
  build_nodes(probe, 1, 2);
  submit_jobs(probe, 2);
  probe.run_for(0.25, 0.25);
  const double draw_w = probe.node_power_w(0);  // both devices at the top

  rtrm::ShardedCluster cluster(plant_config());
  build_nodes(cluster, 1, 2);
  // FirstFit puts job 1 on device 0: with equal weights the tie goes to the
  // lower index, so only the priority weight can spare device 0.
  submit_jobs(cluster, 1, /*priority=*/2.0, /*first_id=*/1);
  submit_jobs(cluster, 1, /*priority=*/1.0, /*first_id=*/2);
  CapCoordinatorConfig cfg;
  cfg.guard_fraction = 0.0;
  cfg.cluster_cap_w = 0.9 * draw_w;
  cfg.use_priority = use_priority;
  CapCoordinator coordinator(cluster, cfg);
  coordinator.attach();
  cluster.run_for(0.25, 0.25);
  EXPECT_EQ(cluster.dispatcher().device_of(1), 0u);
  EXPECT_EQ(cluster.dispatcher().device_of(2), 1u);
  EXPECT_EQ(coordinator.stats().violations, 0u);
  coordinator.detach();
  return {cluster.device_op_index(0, 0), cluster.device_op_index(0, 1)};
}

TEST_F(GovernTest, ControllerLowersPriorityOneBeforeEqualPowerPriorityTwo) {
  const auto [prio2_op, prio1_op] = ops_after_first_clamp(true);
  EXPECT_GT(prio2_op, prio1_op)
      << "the priority-1 device must take the first notches";
  const auto [first_op, second_op] = ops_after_first_clamp(false);
  EXPECT_LE(first_op, second_op)
      << "without priority the tie goes to the lower device index";
}

// --- oracle -------------------------------------------------------------------

// The traces under tests/golden were recorded from the coordinator's former
// implementation on the legacy object-model plant (faults, priority jobs,
// the DVFS ladder, two-device nodes); the one coordinator on ShardedCluster
// must reproduce every figure in them bit for bit.
TEST_F(GovernTest, ReproducesTheRecordedOracleTraces) {
  struct Case {
    const char* file;
    u64 seed;
    CapScenarioShape shape;
  };
  const Case cases[] = {
      {"govern_oracle_7.txt", 7, {}},
      {"govern_oracle_34.txt", 34, {}},
      {"govern_oracle_46.txt", 46, {}},
      {"govern_oracle_ladder_29.txt", 29, {2, 1.0}},
      {"govern_oracle_ladder_37.txt", 37, {2, 1.0}},
  };
  for (const Case& c : cases) {
    std::ifstream in(std::string(ANTAREX_GOLDEN_DIR) + "/" + c.file);
    ASSERT_TRUE(in.good()) << "missing golden " << c.file;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(run_cap_scenario(c.seed, c.shape).trace, golden.str())
        << c.file;
  }
}

// --- plant without a run yet ---------------------------------------------------

TEST_F(GovernTest, CapAttachesBeforeThePlantsFirstRun) {
  constexpr std::size_t kNodes = 64;
  rtrm::ShardedClusterConfig ccfg;
  ccfg.shards = 4;
  rtrm::ShardedCluster cluster(ccfg);
  rtrm::ClusterBlueprint::exascale(23, kNodes).build(cluster);
  double floor_w = 0.0;
  for (std::size_t i = 0; i < kNodes; ++i) floor_w += cluster.node_floor_w(i);

  CapCoordinatorConfig cfg;
  cfg.cluster_cap_w = 1.5 * floor_w;
  CapCoordinator coordinator(cluster, cfg);
  coordinator.attach();  // no run call yet: attach() freezes the topology
  rtrm::submit_job_mix(cluster, 23, 2 * kNodes);
  cluster.run_for(20.0, 0.25);

  EXPECT_GT(coordinator.stats().epochs, 0u);
  EXPECT_GT(cluster.telemetry().jobs_completed, 0u);
  const double eff_cap = cfg.cluster_cap_w * (1.0 - cfg.guard_fraction);
  double node_sum = 0.0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (cluster.node_failed(i)) continue;
    EXPECT_GT(coordinator.node_budgets_w()[i], 0.0) << "node " << i;
    node_sum += coordinator.node_budgets_w()[i];
  }
  EXPECT_NEAR(node_sum, eff_cap, 1e-9 * eff_cap);
}

}  // namespace
