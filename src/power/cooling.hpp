// Datacenter cooling plant and PUE model.
//
// Reproduces the paper's Sec. V claim that "ambient temperature can
// significantly change the overall cooling efficiency of a supercomputer,
// causing more than 10% PUE loss when transitioning from winter to summer"
// (citing the MS3 scheduler work [23]).
//
// The plant is a chiller whose coefficient of performance (COP) degrades as
// outdoor ambient rises (smaller temperature lift available for free
// cooling), plus a fixed facility overhead (lighting, UPS losses, pumps).
#pragma once

#include "support/common.hpp"

namespace antarex::power {

class CoolingModel {
 public:
  /// Chiller COP at kAmbientRefC.
  static constexpr double kCopRef = 6.0;
  /// Reference (winter) outdoor temperature.
  static constexpr double kAmbientRefC = 5.0;
  /// COP lost per degree C above reference.
  static constexpr double kCopSlope = 0.10;
  /// Floor (chiller never better than this).
  static constexpr double kCopMin = 1.5;
  /// Facility overhead as fraction of IT power.
  static constexpr double kFixedOverhead = 0.06;

  double cop(double ambient_c) const;
  double cooling_power_w(double it_power_w, double ambient_c) const;

  /// Power Usage Effectiveness: (IT + cooling + overhead) / IT.
  double pue(double it_power_w, double ambient_c) const;
};

}  // namespace antarex::power
