#include "rtrm/device.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace antarex::rtrm {

Device::Device(std::string instance_name, power::DeviceSpec spec,
               power::Variability var)
    : name_(std::move(instance_name)),
      model_(std::move(spec), var),
      rapl_(name_) {
  // Boot at the highest P-state, as firmware typically does.
  op_index_ = model_.spec().dvfs.size() - 1;
}

void Device::set_op_index(std::size_t i) {
  ANTAREX_REQUIRE(i < spec().dvfs.size(), "Device: P-state index out of range");
  if (i != op_index_) TELEMETRY_COUNT("rtrm.dvfs_transitions", 1);
  op_index_ = i;
}

void Device::assign(power::WorkloadModel w, double units, u64 job_id) {
  ANTAREX_REQUIRE(!busy(), "Device: already executing a job");
  ANTAREX_REQUIRE(units > 0.0, "Device: job with no work");
  workload_ = w;
  units_remaining_ = units;
  job_id_ = job_id;
}

void Device::force_throttle(double duration_s) {
  ANTAREX_REQUIRE(duration_s >= 0.0, "Device: negative throttle duration");
  throttle_hold_s_ = std::max(throttle_hold_s_, duration_s);
  TELEMETRY_COUNT("rtrm.forced_throttles", 1);
}

void Device::set_slowdown(double factor) {
  ANTAREX_REQUIRE(factor >= 1.0, "Device: slowdown factor must be >= 1");
  slowdown_ = factor;
}

std::optional<std::pair<u64, double>> Device::interrupt() {
  if (!busy()) return std::nullopt;
  const std::pair<u64, double> lost{job_id_, units_remaining_};
  units_remaining_ = 0.0;
  ++interrupted_;
  TELEMETRY_COUNT("rtrm.jobs.interrupted", 1);
  return lost;
}

void Device::step_offline(double dt_s, double ambient_c) {
  ANTAREX_REQUIRE(dt_s > 0.0, "Device: non-positive time step");
  ANTAREX_CHECK(!busy(), "Device: offline step with a job still assigned");
  throttle_hold_s_ = std::max(0.0, throttle_hold_s_ - dt_s);
  rapl_.accumulate(0.0, dt_s);
  thermal_.step(0.0, ambient_c, dt_s);
}

std::optional<u64> Device::step(double dt_s, double ambient_c) {
  ANTAREX_REQUIRE(dt_s > 0.0, "Device: non-positive time step");
  std::optional<u64> finished;

  double active_s = 0.0;
  if (busy()) {
    const double unit_time = workload_.execution_time_s(op()) * slowdown_;
    const double progress = dt_s / unit_time;
    if (progress >= units_remaining_) {
      active_s = units_remaining_ * unit_time;
      units_remaining_ = 0.0;
      finished = job_id_;
      ++completed_;
    } else {
      units_remaining_ -= progress;
      active_s = dt_s;
    }
  }
  busy_seconds_ += active_s;

  // Power during the active and idle fractions of the step.
  const double temp = thermal_.temperature_c();
  double energy = 0.0;
  if (active_s > 0.0) {
    const double mem_frac = workload_.memory_boundedness(op());
    const double act = workload_.activity * (1.0 - mem_frac) +
                       0.25 * workload_.activity * mem_frac;
    energy += model_.total_power_w(op(), act, temp) * active_s;
  }
  const double idle_s = dt_s - active_s;
  if (idle_s > 0.0) energy += model_.idle_power_w(op(), temp) * idle_s;

  rapl_.accumulate(energy / dt_s, dt_s);
  thermal_.step(energy / dt_s, ambient_c, dt_s);
  throttle_hold_s_ = std::max(0.0, throttle_hold_s_ - dt_s);
  return finished;
}

double Device::power_w(double) const {
  const double temp = thermal_.temperature_c();
  if (!busy()) return model_.idle_power_w(op(), temp);
  const double mem_frac = workload_.memory_boundedness(op());
  const double act = workload_.activity * (1.0 - mem_frac) +
                     0.25 * workload_.activity * mem_frac;
  return model_.total_power_w(op(), act, temp);
}

}  // namespace antarex::rtrm
