// Workload `fleet`: the runtime half of the paper's Figure 1 on the sharded
// plant alone.
//
// rtrm::ShardedCluster built from ClusterBlueprint::exascale (5000 nodes,
// EnergyAware governor, backfill), stepped on the exec pool, with
// govern::ShardedCapCoordinator enforcing a facility cap,
// fault::ShardFaultDriver replaying a seeded crash/throttle/slowdown/glitch
// schedule and monitor::MonitorFabric sampling every node. A churn phase
// submits seeded job waves; a quiet phase lets the plant settle, so both
// active stepping and parking are exercised. One op is one plant step,
// run_for(dt, dt).
//
// Traced mode registers benchmark-owned step observers between the fault
// driver's, the coordinator's and the fabric's registrations; observers run
// in registration order, so the gap between two bracket observers is the
// wall time of the observer registered between them.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/pool.hpp"
#include "fault/schedule.hpp"
#include "fault/shard_driver.hpp"
#include "govern/sharded_cap.hpp"
#include "monitor/fabric.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using antarex::u64;
using namespace antarex::rtrm;

// 5000 nodes rather than 20k: the 64 MB plant's step time moved with
// neighbouring load on a shared host by up to 70% between runs, the 46 MB
// one by about 10%, with the same layer mix.
constexpr std::size_t kNodes = 5000;
constexpr std::size_t kShards = 16;
constexpr double kDt = 4.0;
// Plant steps per second of --seconds budget (calibrated like toolflow's
// corpus size); the first kChurnShare of them receive job waves.
constexpr double kStepsPerSecond = 300.0;
constexpr double kChurnShare = 0.5;
constexpr std::size_t kWaveEvery = 10;     ///< steps between job waves
constexpr double kJobsPerNodeWave = 0.05;  ///< jobs per node in one wave
constexpr double kCapPerNodeW = 260.0;     ///< facility cap per node

struct Scenario {
  std::size_t nodes = 0;
  std::size_t steps = 0;
  std::size_t churn_steps = 0;
  ClusterBlueprint blueprint;
  std::vector<std::vector<Job>> waves;  ///< submitted every kWaveEvery steps
  antarex::fault::FaultSchedule faults;
  std::size_t jobs = 0;
};

Job make_job(antarex::Rng& rng, u64 id) {
  using antarex::power::DeviceType;
  using antarex::power::WorkloadModel;
  Job job;
  job.id = id;
  job.name = "job" + std::to_string(id);
  job.units = 1.0 + 3.0 * rng.uniform();
  job.checkpoint_units = rng.bernoulli(0.5) ? 0.5 : 0.0;
  job.max_attempts = 4;
  WorkloadModel cpu;
  cpu.cpu_gcycles = 20.0 + 60.0 * rng.uniform();
  cpu.mem_seconds = rng.bernoulli(0.5) ? 0.4 * rng.uniform() : 0.0;
  cpu.cores_used = 12;
  cpu.activity = 0.9;
  job.profiles[DeviceType::Cpu] = cpu;
  if (rng.bernoulli(0.5)) {
    WorkloadModel gpu;
    gpu.cpu_gcycles = 6.0 + 18.0 * rng.uniform();
    gpu.mem_seconds = 0.2 * rng.uniform();
    gpu.cores_used = 40;
    gpu.activity = 0.8;
    job.profiles[DeviceType::Gpu] = gpu;
  }
  if (rng.bernoulli(0.34)) {
    WorkloadModel mic;
    mic.cpu_gcycles = 10.0 + 30.0 * rng.uniform();
    mic.mem_seconds = 0.3 * rng.uniform();
    mic.cores_used = 60;
    mic.activity = 0.85;
    job.profiles[DeviceType::Mic] = mic;
  }
  return job;
}

Scenario make_scenario(u64 seed, std::size_t nodes, std::size_t steps) {
  Scenario sc;
  sc.nodes = nodes;
  sc.steps = steps;
  sc.churn_steps = static_cast<std::size_t>(kChurnShare * static_cast<double>(steps));
  sc.blueprint = ClusterBlueprint::exascale(seed, nodes);
  antarex::Rng rng(seed ^ 0xf1ee7c4a5eULL);
  const auto per_wave = static_cast<std::size_t>(
      std::max(1.0, kJobsPerNodeWave * static_cast<double>(nodes)));
  u64 id = 1;
  for (std::size_t s = 0; s < sc.churn_steps; s += kWaveEvery) {
    std::vector<Job> wave;
    wave.reserve(per_wave);
    for (std::size_t j = 0; j < per_wave; ++j) wave.push_back(make_job(rng, id++));
    sc.waves.push_back(std::move(wave));
  }
  sc.jobs = id - 1;
  // Rates are per node/device: about one crash per 800 nodes over the run.
  const double horizon = kDt * static_cast<double>(steps);
  antarex::fault::FaultModel model;
  model.crash_mtbf_s = 800.0 * horizon;
  model.crash_weibull_shape = 1.2;
  model.repair_mean_s = 0.1 * horizon;
  model.glitch_rate_hz = 1.0 / (2000.0 * horizon);
  model.glitch_magnitude_j = 100.0;
  model.glitch_duration_s = 3.0;
  model.throttle_rate_hz = 1.0 / (2000.0 * horizon);
  model.throttle_duration_s = 8.0;
  model.slowdown_rate_hz = 1.0 / (4000.0 * horizon);
  model.slowdown_factor = 2.0;
  model.slowdown_duration_s = 0.2 * horizon;
  sc.faults = antarex::fault::generate_schedule(model, nodes, 2, horizon, seed);
  return sc;
}

/// FNV-1a over every per-node and per-device observable at full precision.
struct Digest {
  u64 h = 1469598103934665603ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  }
  template <typename T>
  void add(T v) {
    add(&v, sizeof v);
  }
};

u64 plant_digest(ShardedCluster& c) {
  Digest d;
  for (std::size_t i = 0; i < c.node_count(); ++i) {
    d.add(c.node_failed(i));
    d.add(c.node_crashes(i));
    d.add(c.node_downtime_s(i));
    d.add(c.node_energy_j(i));
    d.add(c.node_power_w(i));
    for (std::size_t k = 0; k < c.node_device_count(i); ++k) {
      d.add(c.device_op_index(i, k));
      d.add(c.device_busy(i, k));
      d.add(c.device_throttled(i, k));
      d.add(c.device_temperature_c(i, k));
      d.add(c.device_energy_j(i, k));
      d.add(c.device_counter_uj(i, k));
      d.add(c.device_busy_seconds(i, k));
      d.add(c.device_completed_jobs(i, k));
    }
  }
  const ClusterTelemetry& t = c.telemetry();
  d.add(t.time_s);
  d.add(t.it_energy_j);
  d.add(t.facility_energy_j);
  d.add(t.peak_it_power_w);
  d.add(t.jobs_completed);
  d.add(t.jobs_failed);
  return d.h;
}

struct Outcome {
  std::vector<double> step_ms;
  double timed_s = 0.0;
  double run_ms = 0.0;  ///< summed wall of run_for + submit calls
  double fault_ms = 0.0, govern_ms = 0.0, monitor_ms = 0.0;
  u64 digest = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> layers;
  double kj_per_job = 0.0;
};

Outcome simulate(const Scenario& sc, int threads, bool trace) {
  ShardedClusterConfig cfg;
  cfg.base.governor = GovernorPolicy::EnergyAware;
  cfg.base.backfill = true;
  cfg.shards = std::min(kShards, sc.nodes);
  ShardedCluster cluster(cfg);
  sc.blueprint.build(cluster);

  Outcome out;
  Clock::time_point mark{};
  auto stamp = [&] { mark = Clock::now(); };
  auto lap = [&](double& acc) {
    const auto now = Clock::now();
    acc += 1e3 * seconds_between(mark, now);
    mark = now;
  };
  if (trace) cluster.add_step_observer([&](double, double, double) { stamp(); });
  antarex::fault::ShardFaultDriver driver(cluster, sc.faults);
  if (trace) cluster.add_step_observer([&](double, double, double) { lap(out.fault_ms); });
  // ShardedCapCoordinator::attach() sizes its tables from the shard table,
  // which ShardedCluster builds lazily on the first run call; attaching
  // before any run throws "ShardedCluster: shard out of range". A zero-length
  // run finalizes the topology first.
  cluster.run_for(0.0, kDt);
  antarex::govern::ShardedCapConfig cap;
  cap.cluster_cap_w = kCapPerNodeW * static_cast<double>(sc.nodes);
  antarex::govern::ShardedCapCoordinator coordinator(cluster, cap);
  coordinator.attach();
  if (trace) cluster.add_step_observer([&](double, double, double) { lap(out.govern_ms); });
  antarex::monitor::MonitorFabric fabric;
  fabric.attach(cluster);
  if (trace) cluster.add_step_observer([&](double, double, double) { lap(out.monitor_ms); });

  antarex::exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);
  pool.reset_stats();
  out.step_ms.reserve(sc.steps);
  std::size_t wave = 0;
  const auto t0 = Clock::now();
  for (std::size_t s = 0; s < sc.steps; ++s) {
    const auto s0 = Clock::now();
    if (s % kWaveEvery == 0 && wave < sc.waves.size())
      for (const Job& j : sc.waves[wave++]) cluster.submit(j);
    cluster.run_for(kDt, kDt);
    out.step_ms.push_back(1e3 * seconds_between(s0, Clock::now()));
  }
  out.timed_s = seconds_between(t0, Clock::now());
  for (double ms : out.step_ms) out.run_ms += ms;
  const antarex::exec::PoolStats ps = pool.stats();

  // Checks: energy conservation, no lost jobs, cap held.
  const ClusterTelemetry& tel = cluster.telemetry();
  double node_sum = 0.0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) node_sum += cluster.node_energy_j(i);
  const double rel = std::fabs(tel.it_energy_j - node_sum) / std::max(1.0, std::fabs(tel.it_energy_j));
  if (!(rel < 1e-9))
    out.errors.push_back("energy not conserved: relative gap " + std::to_string(rel));
  const auto& disp = cluster.dispatcher();
  const std::size_t accounted =
      disp.completed() + disp.failed() + disp.queued() + disp.running();
  if (accounted != sc.jobs)
    out.errors.push_back("lost jobs: submitted " + std::to_string(sc.jobs) +
                         ", accounted " + std::to_string(accounted));
  const auto& cs = coordinator.stats();
  if (cs.violations != 0)
    out.errors.push_back(std::to_string(cs.violations) + " cap violation epoch(s)");
  if (trace && out.monitor_ms + 1e-6 < 1e3 * fabric.self_seconds())
    out.errors.push_back("monitor bracket shorter than the fabric's own timer");

  std::size_t devices = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) devices += cluster.node_device_count(i);
  const double device_steps = static_cast<double>(devices) * static_cast<double>(cluster.steps());
  const double full = static_cast<double>(cluster.full_device_steps());
  const double done = static_cast<double>(disp.completed());
  out.kj_per_job = done > 0 ? tel.it_energy_j / 1e3 / done : 0.0;
  if (done == 0) out.errors.push_back("no job completed");

  auto& L = out.layers;
  L["rtrm.full_device_steps"] = full;
  L["rtrm.parked_share"] = device_steps > 0 ? 1.0 - full / device_steps : 0.0;
  L["rtrm.jobs_done"] = done;
  L["monitor.frames"] = static_cast<double>(fabric.broker().published());
  L["monitor.episodes"] = static_cast<double>(fabric.detector().episodes().size());
  L["govern.epochs"] = static_cast<double>(cs.epochs);
  L["govern.violations"] = static_cast<double>(cs.violations);
  L["govern.redistributions"] = static_cast<double>(cs.redistributions);
  L["fault.applied"] = static_cast<double>(driver.applied());
  L["power.it_energy_j"] = tel.it_energy_j;
  L["exec.steals"] = static_cast<double>(ps.steals);
  L["exec.queue_wait_ms"] = 1e3 * ps.mean_queue_wait_s();
  if (trace) {
    L["fault.observer_ms"] = out.fault_ms;
    L["govern.observer_ms"] = out.govern_ms;
    L["monitor.self_ms"] = out.monitor_ms;
    L["monitor.fabric_self_ms"] = 1e3 * fabric.self_seconds();
    L["rtrm.step_ms"] = out.run_ms - out.fault_ms - out.govern_ms - out.monitor_ms;
    L["bench.bracket_share"] = out.run_ms / (1e3 * out.timed_s);
  }
  out.digest = plant_digest(cluster);
  return out;
}

}  // namespace

RunResult run_fleet(const Options& opts, std::vector<double>* setup_s) {
  const auto steps = static_cast<std::size_t>(
      std::max(20.0, std::round(kStepsPerSecond * opts.seconds)));
  const Scenario sc = timed_setup(opts.setup_reps, setup_s,
                                  [&] { return make_scenario(opts.seed, kNodes, steps); });
  Outcome o = simulate(sc, opts.threads, opts.trace);

  RunResult res;
  res.attempted = o.step_ms.size();
  res.latency_ms = std::move(o.step_ms);
  res.timed_s = o.timed_s;
  res.work_s = o.timed_s;
  res.errors = std::move(o.errors);
  res.layers = std::move(o.layers);
  // Energy-to-solution as a higher-is-better score: jobs per MJ.
  res.quality = o.kj_per_job > 0 ? 1e3 / o.kj_per_job : 0.0;
  res.notes["sim_kj_per_job"] = o.kj_per_job;
  res.notes["parked_share"] = res.layers["rtrm.parked_share"];

  // Worker-count independence on a reduced plant (same seed, code path and
  // observers): the digest of every node and device must match at 1 and at
  // opts.threads workers.
  const Scenario small = make_scenario(opts.seed, kNodes / 5, std::max<std::size_t>(20, steps / 4));
  u64 serial_digest = 0;
  for (int threads : {1, std::max(2, opts.threads)}) {
    const Outcome reduced = simulate(small, threads, false);
    for (const auto& e : reduced.errors) res.errors.push_back("reduced plant: " + e);
    if (threads == 1) serial_digest = reduced.digest;
    else if (reduced.digest != serial_digest)
      res.errors.push_back("plant digest differs between 1 and N workers");
  }
  return res;
}

}  // namespace perfbench
