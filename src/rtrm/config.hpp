// Plant configuration and telemetry types, and the governor and placement
// policy enums, shared by the rtrm plant and by the layers that drive it
// (govern, fault, monitor).
#pragma once

#include <optional>

#include "support/common.hpp"

namespace antarex::rtrm {

/// Per-device frequency governors: the policy layer the paper's Sec. V claim
/// compares against ("the default frequency selection of the Linux OS power
/// governor").
enum class GovernorPolicy {
  Performance,  ///< always the highest P-state
  Powersave,    ///< always the lowest P-state
  Ondemand,     ///< Linux-default-like: max when busy, min when idle
  /// ANTAREX: the P-state minimising attributable node energy per work unit,
  /// (device power + node base power / device count) * time. Without the
  /// base-power share the policy degenerates to powersave; the share is what
  /// makes race-to-idle worthwhile for compute-bound codes.
  EnergyAware,
};

inline const char* governor_name(GovernorPolicy p) {
  switch (p) {
    case GovernorPolicy::Performance: return "performance";
    case GovernorPolicy::Powersave: return "powersave";
    case GovernorPolicy::Ondemand: return "ondemand";
    case GovernorPolicy::EnergyAware: return "energy-aware";
  }
  return "?";
}

/// Job placement policies, after the paper's Sec. VII-a observation that
/// "dynamic load balancing and task placement are critical" on heterogeneous
/// systems.
enum class PlacementPolicy {
  FirstFit,      ///< first free compatible device
  FastestFirst,  ///< free compatible device with the shortest predicted time
  EnergyAware,   ///< free compatible device with the lowest predicted energy
};

inline const char* placement_name(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::FirstFit: return "first-fit";
    case PlacementPolicy::FastestFirst: return "fastest-first";
    case PlacementPolicy::EnergyAware: return "energy-aware";
  }
  return "?";
}

struct ClusterConfig {
  GovernorPolicy governor = GovernorPolicy::Ondemand;
  PlacementPolicy placement = PlacementPolicy::FirstFit;
  bool backfill = false;  ///< EASY backfilling in the job dispatcher
  double control_period_s = 1.0;          ///< governor/controller cadence
  double ambient_c = 18.0;                ///< machine-room ambient
  std::optional<double> facility_cap_w;   ///< cluster power cap, if any
  bool thermal_guard = true;
  double t_crit_c = 85.0;
};

struct ClusterTelemetry {
  double time_s = 0.0;
  double it_energy_j = 0.0;       ///< integrated IT (node) energy
  double facility_energy_j = 0.0; ///< IT + cooling + overhead
  double peak_it_power_w = 0.0;
  double max_temperature_c = 0.0;
  u64 jobs_completed = 0;
  u64 jobs_failed = 0;  ///< jobs that exhausted their retry budget
};

}  // namespace antarex::rtrm
