// ABL-GOV: governor ablation on the full cluster simulation.
//
// The CLAIM-DVFS bench compares operating points analytically; this one runs
// the actual RTRM on an identical job stream under each governor and reports
// makespan, IT energy, and energy-delay product — showing where each policy
// sits on the time/energy plane (performance: fast+hungry, powersave:
// frugal+slow, energy-aware: near-performance time at near-powersave energy
// for memory-bound mixes).
#include <algorithm>
#include <iterator>
#include <map>

#include "bench_common.hpp"
#include "obs/attribution.hpp"
#include "rtrm/sharded_cluster.hpp"

namespace {

using namespace antarex;
using namespace antarex::rtrm;

struct Outcome {
  double makespan = 0.0;
  double energy_kj = 0.0;
  obs::AttributionTable by_class;  ///< joules per job class (compute/memory)
};

Outcome run_with(GovernorPolicy governor) {
  ShardedClusterConfig cfg;
  cfg.base.governor = governor;
  cfg.base.control_period_s = 0.5;
  ShardedCluster cluster(cfg);
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  cluster.add_node(60.0, {{cpu, {}}, {cpu, {}}});

  // A mixed stream: half compute-bound, half memory-bound jobs.
  for (u64 id = 1; id <= 8; ++id) {
    Job j;
    j.id = id;
    j.name = id % 2 ? "compute" : "memory";
    j.units = 2.0;
    power::WorkloadModel w;
    w.cpu_gcycles = 25.0;
    w.cores_used = 12;
    w.mem_seconds = (id % 2) ? 0.02 : 0.8;
    w.activity = 0.9;
    j.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(j));
  }
  // Per-class energy ledger: every step, each busy device's draw is
  // attributed to the class of the job it runs (the govern job-ledger idiom),
  // visiting devices in index order.
  Outcome out;
  cluster.add_step_observer([&cluster, &out](double, double, double dt_s) {
    std::map<u32, const char*> class_on;
    for (const Job& j : cluster.dispatcher().running_jobs())
      class_on[cluster.dispatcher().device_of(j.id)] = j.name.c_str();
    for (const auto& [device, job_class] : class_on)
      out.by_class.add(job_class, cluster.device_power_w(device) * dt_s, dt_s);
  });

  const bool ok = cluster.run_until_idle(20000.0, 0.25);
  ANTAREX_CHECK(ok, "governor bench: cluster failed to drain");
  double finish = 0.0;
  for (const Job& j : cluster.dispatcher().completed_jobs())
    finish = std::max(finish, j.finish_time_s);
  out.makespan = finish;
  out.energy_kj = cluster.telemetry().it_energy_j / 1e3;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto mode = bench::parse_telemetry(argc, argv);
  bench::header("ABL-GOV", "governor comparison on the simulated cluster");

  const GovernorPolicy policies[] = {
      GovernorPolicy::Performance, GovernorPolicy::Ondemand,
      GovernorPolicy::Powersave, GovernorPolicy::EnergyAware};

  Table t({"governor", "makespan (s)", "IT energy (kJ)", "EDP (kJ*s)"});
  Outcome ondemand{}, energy_aware{}, powersave{}, performance{};
  for (GovernorPolicy g : policies) {
    const Outcome o = run_with(g);
    t.add_row({governor_name(g), format("%.1f", o.makespan),
               format("%.2f", o.energy_kj),
               format("%.0f", o.energy_kj * o.makespan)});
    switch (g) {
      case GovernorPolicy::Performance: performance = o; break;
      case GovernorPolicy::Ondemand: ondemand = o; break;
      case GovernorPolicy::Powersave: powersave = o; break;
      case GovernorPolicy::EnergyAware: energy_aware = o; break;
    }
  }
  t.print();

  // Where the energy-aware run's joules went, split by job class — the
  // attribution section of the report (printed under --telemetry).
  for (const auto& row : energy_aware.by_class.rows())
    bench::attribution(row.key, row.joules, row.seconds);
  if (mode != bench::TelemetryMode::Off) {
    std::puts("\n-- energy attribution (energy-aware governor) --");
    energy_aware.by_class.table("job class").print();
  }

  bench::metric("iterations", static_cast<double>(std::size(policies)));
  bench::metric("simulated_joules", energy_aware.energy_kj * 1e3);
  bench::metric("ondemand_joules", ondemand.energy_kj * 1e3);
  bench::metric("energy_aware_makespan_s", energy_aware.makespan);
  const double saving = 1.0 - energy_aware.energy_kj / ondemand.energy_kj;
  bench::verdict(
      "the ANTAREX energy-aware policy saves node energy vs the default "
      "governor without powersave's slowdown",
      format("energy-aware: %.0f%% less energy than ondemand, %.1fx faster "
             "than powersave",
             100.0 * saving, powersave.makespan / energy_aware.makespan),
      saving > 0.10 && energy_aware.makespan < powersave.makespan &&
          ondemand.makespan <= powersave.makespan);
  return 0;
}
