// Tests for antarex::fault: schedule generation, each injection kind's
// plant-level semantics on rtrm::ShardedCluster, checkpoint/restart + backoff
// rescheduling, the driver's input checks, and the golden replay fixtures
// proving a faulted run is byte-identical across exec thread counts.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::fault {
namespace {

using power::DeviceSpec;
using power::DeviceType;
using power::WorkloadModel;

// ~1.4 s per work unit at the top P-state: long enough that jobs are still
// in flight when the tests crash their node.
WorkloadModel cpu_work(double gcycles = 60.0) {
  WorkloadModel w;
  w.cpu_gcycles = gcycles;
  w.cores_used = 12;
  w.activity = 0.9;
  return w;
}

rtrm::Job make_job(u64 id, double units = 1.0) {
  rtrm::Job j;
  j.id = id;
  j.name = "job" + std::to_string(id);
  j.units = units;
  j.profiles[DeviceType::Cpu] = cpu_work();
  return j;
}

rtrm::ShardedClusterConfig one_shard(rtrm::ClusterConfig cfg = {}) {
  rtrm::ShardedClusterConfig scfg;
  scfg.base = cfg;
  scfg.shards = 1;
  return scfg;
}

/// Appends `nodes` nodes of one Xeon socket each, 40 W base power.
void add_cpu_nodes(rtrm::ShardedCluster& c, std::size_t nodes) {
  const u32 cpu = c.add_spec(DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < nodes; ++i)
    c.add_node(40.0, {{cpu, power::Variability{}}});
}

// --------------------------------------------------------------------------
// Schedule generation
// --------------------------------------------------------------------------

TEST(Schedule, DeterministicForSeed) {
  FaultModel m;
  m.crash_mtbf_s = 50.0;
  m.glitch_rate_hz = 0.1;
  m.throttle_rate_hz = 0.05;
  m.slowdown_rate_hz = 0.02;
  const FaultSchedule a = generate_schedule(m, 4, 2, 500.0, 99);
  const FaultSchedule b = generate_schedule(m, 4, 2, 500.0, 99);
  const FaultSchedule c = generate_schedule(m, 4, 2, 500.0, 100);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_NE(a.to_text(), c.to_text());
  EXPECT_FALSE(a.events.empty());
}

TEST(Schedule, EventsSortedAndPaired) {
  FaultModel m;
  m.crash_mtbf_s = 40.0;
  m.glitch_rate_hz = 0.1;
  const FaultSchedule s = generate_schedule(m, 3, 1, 400.0, 7);
  double last = 0.0;
  int crashes = 0, repairs = 0, glitches = 0, clears = 0;
  for (const FaultEvent& e : s.events) {
    EXPECT_GE(e.at_s, last);
    last = e.at_s;
    if (e.kind == FaultKind::NodeCrash) ++crashes;
    if (e.kind == FaultKind::NodeRepair) ++repairs;
    if (e.kind == FaultKind::SensorGlitch) ++glitches;
    if (e.kind == FaultKind::GlitchClear) ++clears;
  }
  // Sequential per-node timelines always emit the end with its begin.
  EXPECT_EQ(crashes, repairs);
  EXPECT_EQ(glitches, clears);
  EXPECT_GT(crashes, 0);
}

TEST(Schedule, ZeroRatesInjectNothing) {
  const FaultSchedule s = generate_schedule(FaultModel{}, 8, 2, 1000.0, 1);
  EXPECT_TRUE(s.events.empty());
}

TEST(Schedule, StreamsAreIndependent) {
  // Enabling a second fault class must not move the first class's events.
  FaultModel crashes_only;
  crashes_only.crash_mtbf_s = 60.0;
  FaultModel both = crashes_only;
  both.glitch_rate_hz = 0.2;
  const FaultSchedule a = generate_schedule(crashes_only, 2, 1, 300.0, 11);
  const FaultSchedule b = generate_schedule(both, 2, 1, 300.0, 11);
  std::vector<double> a_crashes, b_crashes;
  for (const auto& e : a.events)
    if (e.kind == FaultKind::NodeCrash) a_crashes.push_back(e.at_s);
  for (const auto& e : b.events)
    if (e.kind == FaultKind::NodeCrash) b_crashes.push_back(e.at_s);
  EXPECT_EQ(a_crashes, b_crashes);
}

// --------------------------------------------------------------------------
// Node crash / repair semantics
// --------------------------------------------------------------------------

TEST(Crash, DownNodeDrawsNoPowerAndCools) {
  rtrm::ShardedCluster c(one_shard());
  add_cpu_nodes(c, 1);
  c.submit(make_job(1, 20.0));
  c.run_for(5.0);
  EXPECT_GT(c.it_power_w(), 0.0);

  c.fail_node(0);
  EXPECT_EQ(c.nodes_down(), 1u);
  EXPECT_EQ(c.node_power_w(0), 0.0);
  const double e0 = c.node_energy_j(0);
  const double t0 = c.device_temperature_c(0, 0);
  c.run_for(10.0);
  EXPECT_EQ(c.it_power_w(), 0.0);
  EXPECT_DOUBLE_EQ(c.node_energy_j(0), e0);
  EXPECT_LT(c.device_temperature_c(0, 0), t0);
  EXPECT_GT(c.node_downtime_s(0), 9.0);
}

TEST(Crash, InterruptedJobRequeuesAndCompletesAfterRepair) {
  rtrm::ShardedCluster c(one_shard());
  add_cpu_nodes(c, 1);
  c.dispatcher().set_backoff_base_s(1.0);
  c.submit(make_job(1, 4.0));
  c.run_for(2.0);
  ASSERT_EQ(c.dispatcher().running(), 1u);

  c.fail_node(0);
  EXPECT_EQ(c.dispatcher().running(), 0u);
  EXPECT_EQ(c.dispatcher().queued(), 1u);
  EXPECT_EQ(c.dispatcher().requeued_jobs(), 1u);

  c.repair_node(0);
  ASSERT_TRUE(c.run_until_idle(500.0));
  EXPECT_EQ(c.dispatcher().completed(), 1u);
  EXPECT_EQ(c.dispatcher().failed(), 0u);
  EXPECT_EQ(c.telemetry().jobs_completed, 1u);
}

TEST(Crash, CheckpointedJobKeepsBankedProgress) {
  // Without checkpoints the restart owes everything again; with them only
  // the tail past the last whole checkpoint is repeated.
  rtrm::ShardedCluster c(one_shard());
  add_cpu_nodes(c, 1);
  rtrm::Job j = make_job(1, 10.0);
  j.checkpoint_units = 1.0;
  c.submit(std::move(j));
  const double unit_s = cpu_work().execution_time_s(
      c.spec(0).dvfs.at(c.device_op_index(0, 0)));
  c.run_for(5.5 * unit_s);  // ~5.5 units of progress
  ASSERT_EQ(c.dispatcher().running(), 1u);

  c.fail_node(0);
  ASSERT_EQ(c.dispatcher().queued(), 1u);
  c.repair_node(0);
  ASSERT_TRUE(c.run_until_idle(1000.0));
  ASSERT_EQ(c.dispatcher().completed(), 1u);
  const rtrm::Job& done = c.dispatcher().completed_jobs()[0];
  EXPECT_EQ(done.attempts, 1);
  EXPECT_DOUBLE_EQ(done.units_done, done.units);

  // From-scratch control: same crash point, no checkpointing.
  rtrm::ShardedCluster c2(one_shard());
  add_cpu_nodes(c2, 1);
  c2.submit(make_job(1, 10.0));
  c2.run_for(5.5 * unit_s);
  c2.fail_node(0);
  c2.repair_node(0);
  ASSERT_TRUE(c2.run_until_idle(1000.0));
  EXPECT_LT(c.telemetry().time_s, c2.telemetry().time_s);
}

TEST(Crash, ExponentialBackoffDelaysRestart) {
  rtrm::ShardedCluster c(one_shard());
  add_cpu_nodes(c, 1);
  c.dispatcher().set_backoff_base_s(8.0);
  c.submit(make_job(1, 2.0));
  c.run_for(1.0);
  c.fail_node(0);
  c.repair_node(0);
  // Attempt 1 backoff = 8 s: the node is healthy but the job must wait.
  c.run_for(4.0);
  EXPECT_EQ(c.dispatcher().running(), 0u);
  EXPECT_EQ(c.dispatcher().queued(), 1u);
  c.run_for(6.0);  // past not_before
  EXPECT_EQ(c.dispatcher().running(), 1u);
}

TEST(Crash, BackoffJobDoesNotBlockOthers) {
  rtrm::ShardedCluster c(one_shard());
  add_cpu_nodes(c, 1);
  c.dispatcher().set_backoff_base_s(50.0);
  c.submit(make_job(1, 2.0));
  c.run_for(1.0);
  c.fail_node(0);
  c.repair_node(0);
  c.submit(make_job(2, 3.0));  // arrives while job 1 is in backoff
  c.run_for(2.0);
  EXPECT_EQ(c.dispatcher().running(), 1u);  // job 2 runs, job 1 waits
  ASSERT_TRUE(c.run_until_idle(500.0));
  EXPECT_EQ(c.dispatcher().completed(), 2u);
}

TEST(Crash, RetryBudgetExhaustionFailsJob) {
  rtrm::ShardedCluster c(one_shard());
  add_cpu_nodes(c, 1);
  c.dispatcher().set_backoff_base_s(0.25);
  rtrm::Job j = make_job(1, 50.0);  // long enough to never finish between crashes
  j.max_attempts = 2;
  c.submit(std::move(j));
  // Crash it three times against a budget of two attempts.
  for (int k = 0; k < 3; ++k) {
    // Step until the job is actually running, then pull the node.
    for (int s = 0; s < 100 && c.dispatcher().running() == 0; ++s)
      c.run_for(0.25);
    ASSERT_EQ(c.dispatcher().running(), 1u);
    c.fail_node(0);
    c.repair_node(0);
  }
  EXPECT_EQ(c.dispatcher().failed(), 1u);
  EXPECT_EQ(c.dispatcher().queued(), 0u);
  EXPECT_EQ(c.dispatcher().failed_jobs()[0].state, rtrm::JobState::Failed);
  EXPECT_EQ(c.dispatcher().failed_jobs()[0].attempts, 3);
  ASSERT_TRUE(c.run_until_idle(100.0));
  EXPECT_EQ(c.telemetry().jobs_failed, 1u);
}

// --------------------------------------------------------------------------
// Sensor glitches, throttles, slowdowns
// --------------------------------------------------------------------------

TEST(Glitch, CorruptsReadingNotGroundTruth) {
  power::RaplDomain r("pkg0");
  r.accumulate(100.0, 10.0);  // 1000 J
  const u32 honest = r.counter_uj();
  const double truth = r.total_j();
  r.set_reading_offset_j(50.0);
  EXPECT_NE(r.counter_uj(), honest);
  EXPECT_DOUBLE_EQ(r.total_j(), truth);
  r.set_reading_offset_j(0.0);
  EXPECT_EQ(r.counter_uj(), honest);
}

TEST(Glitch, InjectionBumpsPoisonEpoch) {
  rtrm::ShardedCluster c(one_shard());
  add_cpu_nodes(c, 1);
  FaultModel m;
  m.glitch_rate_hz = 0.5;
  FaultInjector inj(c, generate_schedule(m, 1, 1, 30.0, 3));
  const u64 epoch0 = telemetry::poison_epoch();
  c.submit(make_job(1, 10.0));
  c.run_for(30.0);
  EXPECT_GT(inj.stats().glitches, 0u);
  EXPECT_GT(telemetry::poison_epoch(), epoch0);
}

TEST(Throttle, ForcesLowestPState) {
  // The performance governor proposes the top P-state every period, so any
  // slower progress comes from the throttle alone; the busy device's
  // progress rate shows the effective operating point.
  rtrm::ClusterConfig cfg;
  cfg.governor = rtrm::GovernorPolicy::Performance;
  rtrm::ShardedCluster c(one_shard(cfg));
  add_cpu_nodes(c, 1);
  c.submit(make_job(1, 50.0));
  c.run_for(0.25);
  const power::DvfsTable& dvfs = c.spec(0).dvfs;
  const std::size_t top = dvfs.size() - 1;
  ASSERT_EQ(c.device_op_index(0, 0), top);
  const double top_rate = 1.0 / cpu_work().execution_time_s(dvfs.at(top));
  EXPECT_DOUBLE_EQ(c.device_progress_rate_ups(0, 0), top_rate);

  c.force_throttle(0, 0, 5.0);
  EXPECT_TRUE(c.device_throttled(0, 0));
  EXPECT_DOUBLE_EQ(c.device_progress_rate_ups(0, 0),
                   1.0 / cpu_work().execution_time_s(dvfs.lowest()));
  EXPECT_LT(c.device_progress_rate_ups(0, 0), top_rate);
  // The hold expires with simulated time, and the pre-throttle operating
  // point (which the throttle never overwrote) takes effect again.
  c.run_for(6.0);
  EXPECT_FALSE(c.device_throttled(0, 0));
  EXPECT_EQ(c.device_op_index(0, 0), top);
  EXPECT_DOUBLE_EQ(c.device_progress_rate_ups(0, 0), top_rate);
}

TEST(Slowdown, StretchesExecutionTime) {
  rtrm::ShardedCluster fast(one_shard());
  add_cpu_nodes(fast, 1);
  rtrm::ShardedCluster slow(one_shard());
  add_cpu_nodes(slow, 1);
  slow.set_node_slowdown(0, 2.0);
  fast.submit(make_job(1, 4.0));
  slow.submit(make_job(1, 4.0));
  // Fine dt so idle detection doesn't quantize the measured makespans.
  ASSERT_TRUE(fast.run_until_idle(1000.0, 0.05));
  ASSERT_TRUE(slow.run_until_idle(1000.0, 0.05));
  EXPECT_GT(slow.telemetry().time_s, 1.5 * fast.telemetry().time_s);
}

// --------------------------------------------------------------------------
// Injector accounting
// --------------------------------------------------------------------------

TEST(Injector, TracksTimeUnderFault) {
  rtrm::ShardedCluster c(one_shard());
  add_cpu_nodes(c, 2);
  FaultSchedule s;
  s.horizon_s = 30.0;
  s.events.push_back({5.0, FaultKind::NodeCrash, 0, 0, 0.0, 10.0});
  s.events.push_back({15.0, FaultKind::NodeRepair, 0, 0, 0.0, 0.0});
  FaultInjector inj(c, s);
  c.run_for(30.0);
  EXPECT_EQ(inj.stats().crashes, 1u);
  EXPECT_EQ(inj.stats().repairs, 1u);
  EXPECT_NEAR(inj.stats().time_under_fault_s, 10.0, 0.5);
  EXPECT_NEAR(inj.stats().node_downtime_s, 10.0, 0.5);
}

TEST(Injector, LogIsReplayableFromSameSeed) {
  auto run = [](u64 seed) {
    telemetry::Registry::global().reset();
    rtrm::ShardedCluster c(one_shard());
    add_cpu_nodes(c, 2);
    for (u64 j = 1; j <= 6; ++j) c.submit(make_job(j, 2.0));
    FaultModel m;
    m.crash_mtbf_s = 20.0;
    m.repair_mean_s = 5.0;
    m.glitch_rate_hz = 0.05;
    FaultInjector inj(c, generate_schedule(m, 2, 1, 40.0, seed));
    c.run_for(40.0);
    c.run_until_idle(2000.0);
    return inj.replay_trace();
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

// --------------------------------------------------------------------------
// Driver input checks: the FaultInjector rejects events that name a node or
// device outside the plant
// --------------------------------------------------------------------------

void expect_rejected(FaultKind kind, u32 node, u32 device) {
  rtrm::ShardedCluster plant(one_shard());
  add_cpu_nodes(plant, 2);
  FaultSchedule s;
  s.horizon_s = 1.0;
  s.events.push_back({0.5, kind, node, device, 2.0, 1.0});
  FaultInjector inj(plant, s);
  try {
    plant.run_for(1.0);
    ADD_FAILURE() << fault_kind_name(kind) << " node=" << node
                  << " dev=" << device << " was not rejected";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("FaultInjector:", 0), 0u)
        << e.what();
  }
}

TEST(Injector, RejectsEventsOutsideThePlant) {
  for (FaultKind k :
       {FaultKind::NodeCrash, FaultKind::NodeRepair, FaultKind::SlowNode})
    expect_rejected(k, 2, 0);
  for (FaultKind k : {FaultKind::SensorGlitch, FaultKind::GlitchClear,
                      FaultKind::ThermalThrottle})
    expect_rejected(k, 1, 1);
}

// --------------------------------------------------------------------------
// Golden replay: byte-identical faulted traces across 1, 2, and 8 threads
// --------------------------------------------------------------------------

std::string golden_run(u64 seed, int threads) {
  // Counters are commutative atomic sums, so their final values — unlike
  // exec.* scheduling details — must be identical across thread counts; run
  // with telemetry on so the replay trace actually captures them.
  telemetry::ScopedEnable telemetry_on;
  telemetry::Registry::global().reset();
  rtrm::ClusterConfig cfg;
  cfg.backfill = true;
  rtrm::ShardedCluster cluster(one_shard(cfg));
  add_cpu_nodes(cluster, 4);
  for (u64 j = 1; j <= 12; ++j) {
    rtrm::Job job = make_job(j, 8.0 + static_cast<double>(j % 4));
    job.checkpoint_units = (j % 2 == 0) ? 0.5 : 0.0;
    cluster.submit(std::move(job));
  }
  FaultModel m;
  m.crash_mtbf_s = 30.0;
  m.repair_mean_s = 6.0;
  m.glitch_rate_hz = 0.04;
  m.throttle_rate_hz = 0.02;
  m.slowdown_rate_hz = 0.01;
  FaultInjector injector(cluster,
                         generate_schedule(m, 4, 1, 80.0, seed));
  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);
  cluster.run_for(80.0, 0.25);
  cluster.run_until_idle(3000.0, 0.25);
  return injector.replay_trace();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The fixtures were recorded on the per-object stepper, which ran one
/// power::RaplDomain per device and node and so also logged the per-sample
/// `power.rapl_samples` / `power.energy_uj` counters. ShardedCluster batches
/// its RAPL accounting and emits neither (test_telemetry pins both counters
/// on RaplDomain itself); every other line must match byte for byte.
std::string without_per_sample_rapl_counters(const std::string& fixture) {
  std::istringstream in(fixture);
  std::string out, line;
  while (std::getline(in, line))
    if (line.rfind("counter power.", 0) != 0) out += line + '\n';
  return out;
}

class GoldenReplay : public ::testing::TestWithParam<u64> {};

TEST_P(GoldenReplay, TraceIsByteIdenticalAcrossThreadCounts) {
  const u64 seed = GetParam();
  const std::string t1 = golden_run(seed, 1);
  const std::string t2 = golden_run(seed, 2);
  const std::string t8 = golden_run(seed, 8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);

  const std::string path = std::string(ANTAREX_GOLDEN_DIR) +
                           "/fault_replay_" + std::to_string(seed) + ".txt";
  const std::string fixture = read_file(path);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << path;
  EXPECT_EQ(t1, without_per_sample_rapl_counters(fixture));
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenReplay, ::testing::Values(42u, 1337u));

}  // namespace
}  // namespace antarex::fault
