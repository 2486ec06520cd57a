// CLAIM-POWERCAP (paper Sec. V): the ANTAREX runtime layer provides
// "scalable and hierarchical optimal control-loops" so a supercomputing
// centre can run under a negotiated power budget without renouncing the
// machine's throughput. The claim reproduced here: the govern layer's
// hierarchical cap coordinator (cluster cap -> per-epoch node budgets ->
// per-device ceilings) holds a facility cap with *zero* epoch violations at
// 60/75/90% of the uncapped draw, retains most of the uncapped throughput,
// and keeps holding the cap while antarex::fault crashes nodes mid-epoch
// (the dead nodes' budget share redistributes to the survivors).
//
// Setup: an 8-node ShardedCluster drains a fixed batch of checkpointed jobs
// (every fourth at priority 2). The uncapped run calibrates the reference draw
// (peak 1 s-epoch mean IT power) and throughput; the capped runs attach a
// CapCoordinator at a fraction of that draw, with the epoch/RAPL-window
// violation semantics. Everything runs on the simulation clock with the
// control period equal to the plant step, so all reported figures are
// deterministic model outputs — byte-identical across --threads 1/2/8 —
// suitable for the ±10% regression gate.
#include <memory>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "govern/govern.hpp"
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
constexpr double kEpochS = 1.0;
constexpr double kRepairMeanS = 40.0;
constexpr double kUnavailability = 0.05;
constexpr u64 kSeed = 7;

struct RunResult {
  double makespan_s = 0.0;
  double it_energy_j = 0.0;
  u64 completed = 0;
  double peak_epoch_w = 0.0;   ///< max 1 s-epoch mean IT power observed
  // Coordinator figures (zero on the uncapped run).
  u64 epochs = 0;
  u64 violations = 0;
  double worst_overshoot_w = 0.0;
  u64 redistributions = 0;
  u64 restricts = 0;
  double job_energy_j = 0.0;   ///< ledger total (conservation check input)
  std::vector<obs::AttributionRow> job_rows;  ///< per-job ledger, joules desc
  double throughput_units_per_s() const {
    return static_cast<double>(completed) * kUnitsPerJob / makespan_s;
  }
};

double mtbf_for_unavailability(double u) {
  return kRepairMeanS * (1.0 - u) / u;
}

/// One scenario: cap_w == 0 runs uncapped (calibration), faults toggles the
/// Weibull crash/repair schedule. The returned figures are deterministic.
RunResult run_scenario(double cap_w, bool faults, int threads,
                       bool trace_nodes) {
  rtrm::ShardedClusterConfig cfg;
  cfg.base.backfill = true;
  cfg.base.control_period_s = kDtS;  // clamp before every plant step
  rtrm::ShardedCluster cluster{cfg};
  const u32 cpu = cluster.add_spec(DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < kNodes; ++i)
    cluster.add_node(40.0, {{cpu, power::Variability{}}});
  for (int j = 1; j <= kJobs; ++j) {
    rtrm::Job job;
    job.id = static_cast<u64>(j);
    job.name = "job" + std::to_string(j);
    job.units = kUnitsPerJob;
    job.priority = j % 4 == 0 ? 2.0 : 1.0;
    job.checkpoint_units = 0.5;
    job.max_attempts = 4;
    // Mixed HPC workload: a compute phase that scales with frequency plus a
    // memory-stall phase that does not — the regime where capping pays
    // (Sec. V: lower P-states shed watts faster than they shed throughput).
    WorkloadModel w;
    w.cpu_gcycles = 60.0;
    w.mem_seconds = 1.4;
    w.cores_used = 12;
    w.activity = 0.9;
    job.profiles[DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }

  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);

  // Under --telemetry=trace, one rtrm.node_power_w.<node> series per node
  // makes the cap decisions visible per node in reports.
  if (trace_nodes) {
    cluster.add_step_observer([&cluster](double, double, double) {
      for (std::size_t i = 0; i < kNodes; ++i)
        telemetry::Registry::global()
            .series("rtrm.node_power_w.n" + std::to_string(i))
            .push(cluster.node_power_w(i));
    });
  }

  // Peak epoch-mean draw, tracked identically in every scenario.
  struct EpochTracker {
    double j = 0.0, t = 0.0, peak_w = 0.0;
  };
  auto epochs = std::make_shared<EpochTracker>();
  cluster.add_step_observer([epochs](double, double p_w, double dt_s) {
    epochs->j += p_w * dt_s;
    epochs->t += dt_s;
    if (epochs->t + 1e-9 >= kEpochS) {
      epochs->peak_w = std::max(epochs->peak_w, epochs->j / epochs->t);
      epochs->j = epochs->t = 0.0;
    }
  });

  std::optional<govern::CapCoordinator> coordinator;
  std::optional<govern::JobEnergyLedger> ledger;
  if (cap_w > 0.0) {
    govern::CapCoordinatorConfig gc;
    gc.cluster_cap_w = cap_w;
    gc.epoch_s = kEpochS;
    gc.guard_fraction = 0.03;
    // Sub-linear demand weighting: alpha 1 keeps feeding the fastest nodes
    // (diminishing throughput per extra watt); 0.5 spreads the budget and
    // retains more aggregate throughput at the same cap.
    gc.fairness_alpha = 0.5;
    coordinator.emplace(cluster, gc);
    coordinator->add_actuator(std::make_shared<govern::DvfsActuator>(cluster));
    coordinator->attach();
    // Ahead of the fault driver, so a crash never hides a step's draw.
    ledger.emplace(cluster);
  }

  std::optional<fault::FaultInjector> injector;
  fault::FaultSchedule schedule;
  if (faults) {
    fault::FaultModel model;
    model.crash_mtbf_s = mtbf_for_unavailability(kUnavailability);
    model.repair_mean_s = kRepairMeanS;
    schedule = fault::generate_schedule(model, static_cast<u32>(kNodes), 1,
                                        kHorizonS, kSeed);
    injector.emplace(cluster, schedule);
  }

  cluster.run_until_idle(8.0 * kHorizonS, kDtS);

  RunResult r;
  r.makespan_s = cluster.telemetry().time_s;
  r.it_energy_j = cluster.telemetry().it_energy_j;
  r.completed = cluster.telemetry().jobs_completed;
  r.peak_epoch_w = epochs->peak_w;
  if (coordinator) {
    coordinator->detach();
    const govern::CapStats& s = coordinator->stats();
    r.epochs = s.epochs;
    r.violations = s.violations;
    r.worst_overshoot_w = s.worst_overshoot_w;
    r.redistributions = s.redistributions;
    r.restricts = s.restricts;
    r.job_energy_j = ledger->table().total_joules();
    r.job_rows = ledger->table().rows();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto mode = bench::parse_telemetry(argc, argv);
  const int threads = bench::parse_threads(argc, argv, 2);
  const bool trace_nodes = mode == bench::TelemetryMode::Trace;
  bench::header("CLAIM-POWERCAP",
                "hierarchical cap adherence vs throughput retained, with and "
                "without injected node faults");

  const RunResult uncapped = run_scenario(0.0, false, threads, trace_nodes);
  const double ref_w = uncapped.peak_epoch_w;
  const double ref_tp = uncapped.throughput_units_per_s();

  const RunResult at60 = run_scenario(0.60 * ref_w, false, threads, trace_nodes);
  const RunResult at75 = run_scenario(0.75 * ref_w, false, threads, trace_nodes);
  const RunResult at90 = run_scenario(0.90 * ref_w, false, threads, trace_nodes);
  const RunResult fault75 =
      run_scenario(0.75 * ref_w, true, threads, trace_nodes);
  const RunResult faultfree = run_scenario(0.0, true, threads, trace_nodes);

  Table t({"scenario", "cap (W)", "epochs", "violations", "overshoot (W)",
           "makespan (s)", "units/s", "retained"});
  const auto row = [&](const char* name, double cap, const RunResult& r,
                       double baseline_tp) {
    t.add_row({name, cap > 0.0 ? format("%.0f", cap) : "-",
               format("%llu", (unsigned long long)r.epochs),
               format("%llu", (unsigned long long)r.violations),
               format("%.2f", r.worst_overshoot_w),
               format("%.1f", r.makespan_s),
               format("%.3f", r.throughput_units_per_s()),
               format("%.1f%%",
                      100.0 * r.throughput_units_per_s() / baseline_tp)});
  };
  row("uncapped", 0.0, uncapped, ref_tp);
  row("60% cap", 0.60 * ref_w, at60, ref_tp);
  row("75% cap", 0.75 * ref_w, at75, ref_tp);
  row("90% cap", 0.90 * ref_w, at90, ref_tp);
  row("uncapped + faults", 0.0, faultfree, ref_tp);
  row("75% cap + faults", 0.75 * ref_w, fault75, ref_tp);
  t.print();

  const double ret60 = at60.throughput_units_per_s() / ref_tp;
  const double ret75 = at75.throughput_units_per_s() / ref_tp;
  const double ret90 = at90.throughput_units_per_s() / ref_tp;
  const double ret75f =
      fault75.throughput_units_per_s() / faultfree.throughput_units_per_s();
  const u64 total_violations =
      at60.violations + at75.violations + at90.violations + fault75.violations;

  bench::metric("iterations", 6.0);
  bench::metric("simulated_joules", at75.it_energy_j);
  bench::metric("uncapped_peak_epoch_w", ref_w);
  bench::metric("uncapped_units_per_s", ref_tp);
  bench::metric("violations_60", static_cast<double>(at60.violations));
  bench::metric("violations_75", static_cast<double>(at75.violations));
  bench::metric("violations_90", static_cast<double>(at90.violations));
  bench::metric("violations_75_fault", static_cast<double>(fault75.violations));
  bench::metric("worst_overshoot_w",
                std::max(std::max(at60.worst_overshoot_w, at75.worst_overshoot_w),
                         std::max(at90.worst_overshoot_w,
                                  fault75.worst_overshoot_w)));
  bench::metric("retention_60", ret60);
  bench::metric("retention_75", ret75);
  bench::metric("retention_90", ret90);
  bench::metric("retention_75_fault", ret75f);
  bench::metric("redistributions_fault",
                static_cast<double>(fault75.redistributions));
  bench::metric("dvfs_escalations_60", static_cast<double>(at60.restricts));
  bench::metric("job_ledger_share_75",
                at75.job_energy_j / at75.it_energy_j);

  bench::attribution("uncapped", uncapped.it_energy_j, uncapped.makespan_s);
  bench::attribution("60% cap", at60.it_energy_j, at60.makespan_s);
  bench::attribution("75% cap", at75.it_energy_j, at75.makespan_s);
  bench::attribution("90% cap", at90.it_energy_j, at90.makespan_s);
  bench::attribution("75% cap + faults", fault75.it_energy_j,
                     fault75.makespan_s);
  // Per-job ledger: where the 75%-capped run's joules actually went (top 5).
  for (std::size_t i = 0; i < at75.job_rows.size() && i < 5; ++i)
    bench::attribution("job:" + at75.job_rows[i].key, at75.job_rows[i].joules,
                       at75.job_rows[i].seconds);

  bench::verdict(
      "hierarchical control holds a facility power cap without renouncing "
      "throughput",
      format("0 violations target: %llu across 60/75/90%% caps (+faults); "
             "throughput retained %.0f%%/%.0f%%/%.0f%%, %.0f%% at 75%% cap "
             "under 5%% node unavailability",
             (unsigned long long)total_violations, 100.0 * ret60,
             100.0 * ret75, 100.0 * ret90, 100.0 * ret75f),
      total_violations == 0 && ret75 >= 0.80 &&
          at75.completed == static_cast<u64>(kJobs));
  return 0;
}
