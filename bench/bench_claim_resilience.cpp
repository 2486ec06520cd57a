// CLAIM-RESILIENCE (paper Sec. I/V): the ANTAREX runtime layer targets
// "adaptivity" on exascale-class machines, where component failure is an
// operating condition rather than an exception. The claim reproduced here:
// a resilience-aware RTRM (checkpoint/restart + failure-aware rescheduling
// with backoff) sustains most of the fault-free throughput at realistic
// node-unavailability levels, while a naive runtime (no checkpoints, no
// retry) permanently loses work.
//
// Setup: an 8-node rtrm::ShardedCluster runs a fixed batch of checkpointed
// jobs while the antarex::fault scheduler injects Weibull-distributed node
// crashes. The crash MTBF is derived from a target steady-state unavailability
// U = repair / (MTBF + repair) with a 40 s mean repair: 1% -> 3960 s,
// 5% -> 760 s. Everything is seeded, so all reported metrics are
// deterministic model outputs suitable for the regression gate.
#include <string>

#include "bench_common.hpp"
#include "fault/fault.hpp"
#include "rtrm/sharded_cluster.hpp"

namespace {

using namespace antarex;
using power::DeviceSpec;
using power::DeviceType;
using power::WorkloadModel;

constexpr std::size_t kNodes = 8;
constexpr int kJobs = 150;
constexpr double kUnitsPerJob = 20.0;
constexpr double kHorizonS = 600.0;
constexpr double kDtS = 0.25;
constexpr double kRepairMeanS = 40.0;
constexpr u64 kSeed = 7;

struct ScenarioResult {
  double makespan_s = 0.0;
  double it_energy_j = 0.0;
  u64 completed = 0;
  u64 failed = 0;
  u64 requeued = 0;
  double throughput_units_per_s() const {
    return static_cast<double>(completed) * kUnitsPerJob / makespan_s;
  }
  double joules_per_unit() const {
    return completed == 0 ? 0.0
                          : it_energy_j / (static_cast<double>(completed) *
                                           kUnitsPerJob);
  }
};

/// MTBF giving steady-state unavailability `u` with mean repair time
/// kRepairMeanS: u = repair / (mtbf + repair).
double mtbf_for_unavailability(double u) {
  return kRepairMeanS * (1.0 - u) / u;
}

ScenarioResult run_scenario(double unavailability, bool resilient) {
  rtrm::ShardedClusterConfig cfg;
  cfg.base.backfill = true;
  rtrm::ShardedCluster cluster{cfg};
  const u32 cpu = cluster.add_spec(DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < kNodes; ++i)
    cluster.add_node(40.0, {{cpu, power::Variability{}}});
  for (int j = 1; j <= kJobs; ++j) {
    rtrm::Job job;
    job.id = static_cast<u64>(j);
    job.name = "job" + std::to_string(j);
    job.units = kUnitsPerJob;
    // The resilient runtime checkpoints every half unit and retries with
    // exponential backoff; the naive one checkpoints nothing and tolerates
    // zero failures — one crash loses the job for good.
    job.checkpoint_units = resilient ? 0.5 : 0.0;
    job.max_attempts = resilient ? 4 : 0;
    WorkloadModel w;
    w.cpu_gcycles = 60.0;
    w.cores_used = 12;
    w.activity = 0.9;
    job.profiles[DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }

  fault::FaultModel model;
  if (unavailability > 0.0) {
    model.crash_mtbf_s = mtbf_for_unavailability(unavailability);
    model.repair_mean_s = kRepairMeanS;
  }
  const fault::FaultSchedule schedule = fault::generate_schedule(
      model, static_cast<u32>(kNodes), 1, kHorizonS, kSeed);
  fault::FaultInjector injector(cluster, schedule);

  // Run to drain rather than for a fixed horizon: the makespan then reflects
  // capacity lost to downtime and redone work. The fault schedule covers the
  // whole window (repairs past the horizon still fire), so the cluster always
  // empties. kJobs is sized so the fault-free batch takes most of kHorizonS.
  cluster.run_until_idle(8.0 * kHorizonS, kDtS);

  ScenarioResult r;
  r.makespan_s = cluster.telemetry().time_s;
  r.it_energy_j = cluster.telemetry().it_energy_j;
  r.completed = cluster.telemetry().jobs_completed;
  r.failed = cluster.telemetry().jobs_failed;
  r.requeued = cluster.dispatcher().requeued_jobs();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_telemetry(argc, argv);
  bench::header("CLAIM-RESILIENCE",
                "throughput and energy retention under injected node failures");

  const ScenarioResult clean = run_scenario(0.0, true);
  const ScenarioResult at1 = run_scenario(0.01, true);
  const ScenarioResult at5 = run_scenario(0.05, true);
  const ScenarioResult naive5 = run_scenario(0.05, false);

  Table t({"scenario", "completed", "failed", "requeues", "makespan (s)",
           "units/s", "J/unit"});
  const auto row = [&](const char* name, const ScenarioResult& r) {
    t.add_row({name, format("%llu", (unsigned long long)r.completed),
               format("%llu", (unsigned long long)r.failed),
               format("%llu", (unsigned long long)r.requeued),
               format("%.1f", r.makespan_s),
               format("%.3f", r.throughput_units_per_s()),
               format("%.1f", r.joules_per_unit())});
  };
  row("no faults", clean);
  row("1% unavailability", at1);
  row("5% unavailability", at5);
  row("5%, naive runtime", naive5);
  t.print();

  const double retention1 =
      at1.throughput_units_per_s() / clean.throughput_units_per_s();
  const double retention5 =
      at5.throughput_units_per_s() / clean.throughput_units_per_s();
  const double energy_overhead5 =
      at5.joules_per_unit() / clean.joules_per_unit() - 1.0;
  const double naive_goodput =
      static_cast<double>(naive5.completed) / kJobs;
  const double resilient_goodput =
      static_cast<double>(at5.completed) / kJobs;

  bench::metric("iterations", 4.0);
  bench::metric("simulated_joules", at5.it_energy_j);
  bench::metric("clean_units_per_s", clean.throughput_units_per_s());
  bench::metric("throughput_retention_1pct", retention1);
  bench::metric("throughput_retention_5pct", retention5);
  bench::metric("energy_overhead_5pct", energy_overhead5);
  bench::metric("requeues_5pct", static_cast<double>(at5.requeued));
  bench::metric("resilient_goodput_5pct", resilient_goodput);
  bench::metric("naive_goodput_5pct", naive_goodput);

  bench::attribution("no faults", clean.it_energy_j, clean.makespan_s);
  bench::attribution("1% unavailability", at1.it_energy_j, at1.makespan_s);
  bench::attribution("5% unavailability", at5.it_energy_j, at5.makespan_s);
  bench::attribution("5%, naive runtime", naive5.it_energy_j,
                     naive5.makespan_s);

  bench::verdict(
      "adaptive runtime sustains service under component failure",
      format("%.0f%% / %.0f%% throughput retained at 1%% / 5%% "
             "unavailability; naive runtime finishes %.0f%% of jobs vs "
             "%.0f%% resilient",
             100.0 * retention1, 100.0 * retention5, 100.0 * naive_goodput,
             100.0 * resilient_goodput),
      retention5 > 0.80 && resilient_goodput >= naive_goodput &&
          at5.completed + at5.failed == kJobs);
  return 0;
}
