// Plant oracle suite: the SoA ShardedCluster must reproduce, byte for byte,
// the oracle traces recorded from the original per-object stepper
// (tests/golden/plant_oracle_*.txt and sharded_replay_*.txt). Each trace is
// the canonical state trace (tests/sharded_common.hpp) — every per-node and
// per-device observable at full %.17g precision — plus the fault/dispatcher
// log, and must come out identical across 1/4/16 shards and 1/2/8 exec
// workers, with and without injected crash/repair schedules.
#include <cstdio>
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
  std::optional<double> facility_cap_w = std::nullopt;
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

/// Trace + fault log: the document every oracle file holds.
std::string document(std::string doc, const fault::FaultInjector* inj) {
  doc += "--- fault log ---\n";
  if (inj)
    for (const std::string& line : inj->log()) {
      doc += line;
      doc += '\n';
    }
  return doc;
}

std::string sharded_run(u64 seed, const Scenario& sc, std::size_t shards,
                        int threads) {
  ShardedClusterConfig cfg;
  cfg.base = base_config(sc);
  cfg.shards = shards;
  ShardedCluster cluster(cfg);
  ClusterBlueprint::exascale(seed, kNodes).build(cluster);
  if (sc.op_step_down > 0) cluster.set_op_step_down(sc.op_step_down);
  submit_job_mix(cluster, seed, kJobs);
  std::optional<fault::FaultInjector> driver;
  if (sc.faults)
    driver.emplace(cluster, make_fault_schedule(kNodes, kHorizon, seed));
  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);
  cluster.run_for(kHorizon, kDt);
  cluster.run_until_idle(kIdleLimit, kDt);
  return document(state_trace(cluster), driver ? &*driver : nullptr);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Oracle {
  const char* name;
  u64 seed;
  Scenario sc;
};

std::string oracle_path(const std::string& name, u64 seed) {
  return std::string(ANTAREX_GOLDEN_DIR) + "/plant_oracle_" + name + "_" +
         std::to_string(seed) + ".txt";
}

std::string oracle_text(const Oracle& o) {
  const std::string text = read_file(oracle_path(o.name, o.seed));
  EXPECT_FALSE(text.empty()) << "missing oracle " << oracle_path(o.name, o.seed);
  return text;
}

const Oracle kOddShards{"odd_shards_faulted", 29u, {.faults = true}};

const Oracle kOracles[] = {
    {"ondemand_first_fit", 7u, {}},
    {"energy_aware_backfill",
     11u,
     {.governor = GovernorPolicy::EnergyAware,
      .placement = PlacementPolicy::EnergyAware,
      .backfill = true}},
    {"fastest_first_faulted",
     13u,
     {.governor = GovernorPolicy::EnergyAware,
      .placement = PlacementPolicy::FastestFirst,
      .backfill = true,
      .faults = true,
      .op_step_down = 1}},
    {"facility_cap_faulted",
     17u,
     {.placement = PlacementPolicy::EnergyAware,
      .facility_cap_w = 120.0 * static_cast<double>(kNodes),
      .faults = true}},
    kOddShards,
};

struct ShardCase {
  std::size_t shards;
  int threads;
};
constexpr ShardCase kShardCases[] = {{1, 1}, {4, 2}, {16, 8}};

class PlantOracle : public ::testing::TestWithParam<Oracle> {};

TEST_P(PlantOracle, ShardedEngineReproducesTheOracle) {
  const Oracle& o = GetParam();
  const std::string oracle = oracle_text(o);
  for (const ShardCase& c : kShardCases) {
    EXPECT_EQ(oracle, sharded_run(o.seed, o.sc, c.shards, c.threads))
        << "trace diverged at shards=" << c.shards << " threads=" << c.threads
        << " seed=" << o.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, PlantOracle, ::testing::ValuesIn(kOracles),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(PlantOracleShards, OddShardCountsMatchToo) {
  // Shard counts that do not divide the node count exercise the uneven
  // range partition; the merge must still commit in node order.
  const std::string oracle = oracle_text(kOddShards);
  for (std::size_t shards : {3u, 5u, 7u, 24u}) {
    EXPECT_EQ(oracle, sharded_run(kOddShards.seed, kOddShards.sc, shards, 2))
        << "shards=" << shards;
  }
}

// --------------------------------------------------------------------------
// RAPL readout: glitched counters wrap through power::RaplDomain::wrap_uj,
// parked devices catch their energy up before a read, and the sampler's
// per-device reads match the recorded oracle.
// --------------------------------------------------------------------------

constexpr u64 kReadoutSeed = 7u;

/// Runs the glitch/wrap/park readout scenario and returns the per-device
/// sampler reads, one line per device.
std::string readout_run(ShardedCluster& plant) {
  submit_job_mix(plant, kReadoutSeed, 4 * kJobs);
  // Glitch offsets in joules: positive, negative (below zero total, so the
  // reading itself goes negative), and large enough that uj >= 2^53.
  const double kOffsets[] = {1234.567, -987.25, -5.0e4, 3.3e9, -1.0e12, 0.1};
  auto glitch = [&](std::size_t round) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      const std::size_t d = (i + round) % plant.node_device_count(i);
      plant.set_reading_offset_j(i, d,
                                 kOffsets[(i + round) % std::size(kOffsets)]);
    }
  };
  glitch(0);
  plant.run_for(200.0, kDt);
  glitch(1);
  plant.run_until_idle(kIdleLimit, kDt);
  // Idle long enough for devices to park: reads must catch their energy up.
  plant.run_for(600.0, kDt);
  std::string out;
  char buf[256];
  for (std::size_t i = 0; i < kNodes; ++i)
    for (std::size_t d = 0; d < plant.node_device_count(i); ++d) {
      std::snprintf(buf, sizeof(buf),
                    "node %zu dev %zu uj=%u busy=%d temp=%.17g rate=%.17g\n", i,
                    d, plant.device_counter_uj(i, d),
                    plant.device_busy(i, d) ? 1 : 0,
                    plant.device_temperature_c(i, d),
                    plant.device_progress_rate_ups(i, d));
      out += buf;
    }
  return out;
}

const Oracle kReadout{"readout", kReadoutSeed, {}};

TEST(PlantReadout, CountersMatchTheOracleAfterGlitchesWrapAndParking) {
  ShardedClusterConfig cfg;
  cfg.shards = 4;
  ShardedCluster sharded(cfg);
  ClusterBlueprint::exascale(kReadoutSeed, kNodes).build(sharded);
  EXPECT_EQ(oracle_text(kReadout), readout_run(sharded));
  ASSERT_LT(sharded.full_device_steps(),
            sharded.steps() * sharded.device_count());

  std::size_t wrapped = 0;
  for (std::size_t i = 0; i < kNodes; ++i)
    for (std::size_t d = 0; d < sharded.node_device_count(i); ++d)
      if (sharded.device_energy_j(i, d) * 1e6 >= 4294967296.0) ++wrapped;
  EXPECT_GT(wrapped, 0u) << "the run never wrapped a counter";
  EXPECT_THROW(sharded.device_counter_uj(kNodes, 0), Error);
  EXPECT_THROW(
      sharded.device_progress_rate_ups(0, sharded.node_device_count(0)), Error);
  EXPECT_THROW(sharded.set_node_slowdown(kNodes, 2.0), Error);
}

// --------------------------------------------------------------------------
// Replay fixtures (EnergyAware governor, FastestFirst + backfill, faults),
// recorded from the original per-object stepper.
// --------------------------------------------------------------------------

class GoldenSharded : public ::testing::TestWithParam<u64> {};

TEST_P(GoldenSharded, ShardedEngineReproducesTheRecordedReplay) {
  const u64 seed = GetParam();
  const Scenario sc{.governor = GovernorPolicy::EnergyAware,
                    .placement = PlacementPolicy::FastestFirst,
                    .backfill = true,
                    .faults = true};
  const std::string path = std::string(ANTAREX_GOLDEN_DIR) +
                           "/sharded_replay_" + std::to_string(seed) + ".txt";
  const std::string fixture = read_file(path);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << path;
  EXPECT_EQ(sharded_run(seed, sc, 4, 2), fixture);
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenSharded,
                         ::testing::Values(42u, 1337u));

}  // namespace
}  // namespace antarex::rtrm
