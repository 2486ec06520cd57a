// Differential shard-equivalence suite: the SoA ShardedCluster must be an
// exact drop-in for the legacy rtrm::Cluster stepper. Every test runs the
// same seeded scenario through both engines and asserts the canonical state
// trace (tests/sharded_common.hpp) — every per-node and per-device
// observable at full %.17g precision — is byte-identical, across 1/4/16
// shards and 1/2/8 exec workers, with and without injected crash/repair
// schedules. Golden fixtures generated from the *legacy* stepper pin the
// sharded path to it across refactors, mirroring fault_replay_*.
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/pool.hpp"
#include "fault/injector.hpp"
#include "sharded_common.hpp"

namespace antarex::rtrm {
namespace {

constexpr std::size_t kNodes = 24;
constexpr std::size_t kJobs = 36;
constexpr double kHorizon = 40.0;
constexpr double kDt = 0.25;
constexpr double kIdleLimit = 2000.0;

struct Scenario {
  GovernorPolicy governor = GovernorPolicy::Ondemand;
  PlacementPolicy placement = PlacementPolicy::FirstFit;
  bool backfill = false;
  std::optional<double> facility_cap_w;
  bool faults = false;
  std::size_t op_step_down = 0;
};

ClusterConfig base_config(const Scenario& sc) {
  ClusterConfig cfg;
  cfg.governor = sc.governor;
  cfg.placement = sc.placement;
  cfg.backfill = sc.backfill;
  cfg.facility_cap_w = sc.facility_cap_w;
  return cfg;
}

std::string legacy_run(u64 seed, const Scenario& sc,
                       std::vector<std::string>* fault_log = nullptr) {
  Cluster cluster(base_config(sc));
  ClusterBlueprint::exascale(seed, kNodes).build(cluster);
  if (sc.op_step_down > 0) cluster.set_op_step_down(sc.op_step_down);
  submit_job_mix(cluster, seed, kJobs);
  std::optional<fault::FaultInjector> injector;
  if (sc.faults)
    injector.emplace(cluster, make_fault_schedule(kNodes, kHorizon, seed));
  cluster.run_for(kHorizon, kDt);
  cluster.run_until_idle(kIdleLimit, kDt);
  if (injector && fault_log) *fault_log = injector->log();
  return state_trace(cluster);
}

std::string sharded_run(u64 seed, const Scenario& sc, std::size_t shards,
                        int threads,
                        std::vector<std::string>* fault_log = nullptr) {
  ShardedClusterConfig cfg;
  cfg.base = base_config(sc);
  cfg.shards = shards;
  ShardedCluster cluster(cfg);
  ClusterBlueprint::exascale(seed, kNodes).build(cluster);
  if (sc.op_step_down > 0) cluster.set_op_step_down(sc.op_step_down);
  submit_job_mix(cluster, seed, kJobs);
  std::optional<fault::ShardFaultDriver> driver;
  if (sc.faults)
    driver.emplace(cluster, make_fault_schedule(kNodes, kHorizon, seed));
  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);
  cluster.run_for(kHorizon, kDt);
  cluster.run_until_idle(kIdleLimit, kDt);
  if (driver && fault_log) *fault_log = driver->log();
  return state_trace(cluster);
}

struct ShardCase {
  std::size_t shards;
  int threads;
};
constexpr ShardCase kShardCases[] = {{1, 1}, {4, 2}, {16, 8}};

void expect_equivalent(u64 seed, const Scenario& sc) {
  std::vector<std::string> legacy_log;
  const std::string reference = legacy_run(seed, sc, &legacy_log);
  ASSERT_FALSE(reference.empty());
  for (const ShardCase& c : kShardCases) {
    std::vector<std::string> log;
    const std::string got = sharded_run(seed, sc, c.shards, c.threads, &log);
    EXPECT_EQ(reference, got)
        << "trace diverged at shards=" << c.shards
        << " threads=" << c.threads << " seed=" << seed;
    if (sc.faults) {
      EXPECT_EQ(legacy_log, log)
          << "fault/dispatcher log diverged at shards=" << c.shards
          << " threads=" << c.threads << " seed=" << seed;
    }
  }
}

TEST(ShardedDifferential, HealthyOndemandFirstFit) {
  Scenario sc;
  expect_equivalent(7u, sc);
}

TEST(ShardedDifferential, HealthyEnergyAwarePlacementAndGovernor) {
  Scenario sc;
  sc.governor = GovernorPolicy::EnergyAware;
  sc.placement = PlacementPolicy::EnergyAware;
  sc.backfill = true;
  expect_equivalent(11u, sc);
}

TEST(ShardedDifferential, FaultedFastestFirstBackfill) {
  Scenario sc;
  sc.governor = GovernorPolicy::EnergyAware;
  sc.placement = PlacementPolicy::FastestFirst;
  sc.backfill = true;
  sc.faults = true;
  sc.op_step_down = 1;
  expect_equivalent(13u, sc);
}

TEST(ShardedDifferential, FaultedFacilityCap) {
  Scenario sc;
  sc.placement = PlacementPolicy::EnergyAware;
  sc.facility_cap_w = 120.0 * static_cast<double>(kNodes);
  sc.faults = true;
  expect_equivalent(17u, sc);
}

TEST(ShardedDifferential, OddShardCountsMatchToo) {
  // Shard counts that do not divide the node count exercise the uneven
  // range partition; the merge must still commit in node order.
  Scenario sc;
  sc.faults = true;
  const std::string reference = legacy_run(29u, sc);
  for (std::size_t shards : {3u, 5u, 7u, 24u}) {
    EXPECT_EQ(reference, sharded_run(29u, sc, shards, 2))
        << "shards=" << shards;
  }
}

// --------------------------------------------------------------------------
// RAPL readout: both plants wrap glitched counters through the one
// power::RaplDomain::wrap_uj, and the sampler's per-device reads agree.
// --------------------------------------------------------------------------

TEST(ShardedReadout, CountersMatchLegacyRaplAfterGlitchesAndWrap) {
  constexpr u64 kSeed = 7u;
  Cluster legacy;
  ClusterBlueprint::exascale(kSeed, kNodes).build(legacy);
  ShardedClusterConfig cfg;
  cfg.shards = 4;
  ShardedCluster sharded(cfg);
  ClusterBlueprint::exascale(kSeed, kNodes).build(sharded);
  submit_job_mix(legacy, kSeed, 4 * kJobs);
  submit_job_mix(sharded, kSeed, 4 * kJobs);

  // Glitch offsets in joules: positive, negative (below zero total, so the
  // reading itself goes negative), and large enough that uj >= 2^53.
  const double kOffsets[] = {1234.567, -987.25, -5.0e4, 3.3e9, -1.0e12, 0.1};
  auto glitch = [&](std::size_t round) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      const std::size_t d = (i + round) % legacy.node_device_count(i);
      const double j = kOffsets[(i + round) % std::size(kOffsets)];
      legacy.nodes()[i].device(d).rapl().set_reading_offset_j(j);
      sharded.set_reading_offset_j(i, d, j);
    }
  };
  glitch(0);
  legacy.run_for(200.0, kDt);
  sharded.run_for(200.0, kDt);
  glitch(1);
  legacy.run_until_idle(kIdleLimit, kDt);
  sharded.run_until_idle(kIdleLimit, kDt);
  // Idle long enough for devices to park: reads must catch their energy up.
  legacy.run_for(600.0, kDt);
  sharded.run_for(600.0, kDt);
  ASSERT_LT(sharded.full_device_steps(),
            sharded.steps() * sharded.device_count());

  std::size_t wrapped = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::size_t n_dev = legacy.node_device_count(i);
    ASSERT_EQ(n_dev, sharded.node_device_count(i));
    for (std::size_t d = 0; d < n_dev; ++d) {
      const power::RaplDomain& rapl = legacy.nodes()[i].device(d).rapl();
      if (rapl.total_j() * 1e6 >= 4294967296.0) ++wrapped;
      EXPECT_EQ(sharded.device_counter_uj(i, d), rapl.counter_uj())
          << "node " << i << " dev " << d;
      EXPECT_EQ(sharded.device_busy(i, d), legacy.device_busy(i, d));
      EXPECT_EQ(sharded.device_temperature_c(i, d),
                legacy.device_temperature_c(i, d));
      EXPECT_EQ(sharded.device_progress_rate_ups(i, d),
                legacy.device_progress_rate_ups(i, d));
    }
  }
  EXPECT_GT(wrapped, 0u) << "the run never wrapped a counter";
  EXPECT_THROW(sharded.device_counter_uj(kNodes, 0), Error);
  EXPECT_THROW(
      sharded.device_progress_rate_ups(0, sharded.node_device_count(0)), Error);
}

// --------------------------------------------------------------------------
// Golden fixtures: the legacy stepper generates them, the sharded engine
// must reproduce them byte-for-byte (regen with ANTAREX_UPDATE_GOLDEN=1).
// --------------------------------------------------------------------------

std::string golden_document(u64 seed, const Scenario& sc, bool legacy) {
  std::vector<std::string> log;
  const std::string trace = legacy ? legacy_run(seed, sc, &log)
                                   : sharded_run(seed, sc, 4, 2, &log);
  std::string doc = trace;
  doc += "--- fault log ---\n";
  for (const std::string& line : log) {
    doc += line;
    doc += '\n';
  }
  return doc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Scenario golden_scenario() {
  Scenario sc;
  sc.governor = GovernorPolicy::EnergyAware;
  sc.placement = PlacementPolicy::FastestFirst;
  sc.backfill = true;
  sc.faults = true;
  return sc;
}

class GoldenSharded : public ::testing::TestWithParam<u64> {};

TEST_P(GoldenSharded, LegacyGeneratedFixtureMatchesShardedEngine) {
  const u64 seed = GetParam();
  const Scenario sc = golden_scenario();
  const std::string legacy = golden_document(seed, sc, /*legacy=*/true);

  const std::string path = std::string(ANTAREX_GOLDEN_DIR) +
                           "/sharded_replay_" + std::to_string(seed) + ".txt";
  if (const char* update = std::getenv("ANTAREX_UPDATE_GOLDEN");
      update && update[0] == '1') {
    std::ofstream out(path, std::ios::binary);
    out << legacy;  // the fixture is always the legacy stepper's output
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string fixture = read_file(path);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << path
                                << " (run with ANTAREX_UPDATE_GOLDEN=1)";
  EXPECT_EQ(legacy, fixture);
  EXPECT_EQ(golden_document(seed, sc, /*legacy=*/false), fixture);
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenSharded,
                         ::testing::Values(42u, 1337u));

}  // namespace
}  // namespace antarex::rtrm
