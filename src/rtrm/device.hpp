// One device instance (CPU socket / MIC / GPU) under runtime management.
//
// A Device couples the analytic models from src/power (power, thermal, RAPL
// counter) with an execution state: the operating point chosen by a governor
// or controller, and the work currently assigned to it.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "power/dvfs.hpp"
#include "power/model.hpp"
#include "power/rapl.hpp"
#include "power/thermal.hpp"
#include "support/common.hpp"

namespace antarex::rtrm {

class Device {
 public:
  Device(std::string instance_name, power::DeviceSpec spec,
         power::Variability var = {});

  const std::string& name() const { return name_; }
  const power::DeviceSpec& spec() const { return model_.spec(); }

  // --- operating point ------------------------------------------------------
  std::size_t op_index() const { return op_index_; }
  /// Effective operating point: the governor's choice, unless a forced
  /// thermal throttle (PROCHOT-style, injected by antarex::fault) is active —
  /// hardware throttling overrides any OS/governor decision.
  const power::OperatingPoint& op() const {
    return spec().dvfs.at(throttled() ? 0 : op_index_);
  }
  void set_op_index(std::size_t i);
  std::size_t num_ops() const { return spec().dvfs.size(); }

  // --- fault state ----------------------------------------------------------
  /// Force the lowest P-state for the next `duration_s` of simulated time
  /// regardless of governor decisions (an injected thermal-throttle event).
  void force_throttle(double duration_s);
  bool throttled() const { return throttle_hold_s_ > 0.0; }

  /// Degrade execution speed by `factor` (>= 1; 1 restores nominal). Models a
  /// slow node: same power draw per active second, `factor` times the time —
  /// the silent performance faults PowerStack-style runtimes must detect.
  void set_slowdown(double factor);
  double slowdown() const { return slowdown_; }

  /// Node crash support: drop the assigned job without completing it.
  /// Returns (job id, units still unfinished) if one was running.
  std::optional<std::pair<u64, double>> interrupt();

  /// Advance only the thermal state with zero power draw (the node lost
  /// power). No energy is accumulated; the die cools toward ambient.
  void step_offline(double dt_s, double ambient_c);

  u64 interrupted_jobs() const { return interrupted_; }

  // --- work assignment ------------------------------------------------------
  /// Assign `units` of work characterized by `w`. Fails if busy.
  void assign(power::WorkloadModel w, double units, u64 job_id);
  bool busy() const { return units_remaining_ > 0.0; }

  // --- simulation -----------------------------------------------------------
  /// Advance dt seconds: progress assigned work at the current operating
  /// point, update temperature, accumulate energy. Returns the job id if the
  /// assigned work completed within this step.
  std::optional<u64> step(double dt_s, double ambient_c);

  /// Instantaneous electrical power right now.
  double power_w(double ambient_c_unused = 0.0) const;

  /// Observable work progress rate (units/s) at the effective operating
  /// point — what a job-level heartbeat sensor reports. Reflects forced
  /// throttles (via op()) and injected slowdowns alike; 0 while idle. This
  /// is the signal antarex::monitor's slow-node detection keys on.
  double progress_rate_ups() const {
    if (!busy()) return 0.0;
    return 1.0 / (workload_.execution_time_s(op()) * slowdown_);
  }

  double temperature_c() const { return thermal_.temperature_c(); }
  const power::RaplDomain& rapl() const { return rapl_; }
  /// Mutable counter access for sensor-glitch injection (antarex::fault).
  power::RaplDomain& rapl() { return rapl_; }
  double busy_seconds() const { return busy_seconds_; }
  u64 completed_jobs() const { return completed_; }

 private:
  std::string name_;
  power::PowerModel model_;
  power::ThermalModel thermal_;
  power::RaplDomain rapl_;
  std::size_t op_index_;

  power::WorkloadModel workload_;
  double units_remaining_ = 0.0;
  u64 job_id_ = 0;
  double busy_seconds_ = 0.0;
  u64 completed_ = 0;
  u64 interrupted_ = 0;
  double throttle_hold_s_ = 0.0;
  double slowdown_ = 1.0;
};

}  // namespace antarex::rtrm
