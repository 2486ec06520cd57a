#include "power/cooling.hpp"

#include <algorithm>

namespace antarex::power {

double CoolingModel::cop(double ambient_c) const {
  const double degraded =
      kCopRef - kCopSlope * std::max(0.0, ambient_c - kAmbientRefC);
  return std::max(kCopMin, degraded);
}

double CoolingModel::cooling_power_w(double it_power_w, double ambient_c) const {
  ANTAREX_REQUIRE(it_power_w >= 0.0, "CoolingModel: negative IT power");
  return it_power_w / cop(ambient_c);
}

double CoolingModel::pue(double it_power_w, double ambient_c) const {
  if (it_power_w <= 0.0) return 1.0;
  const double total = it_power_w + cooling_power_w(it_power_w, ambient_c) +
                       kFixedOverhead * it_power_w;
  return total / it_power_w;
}

}  // namespace antarex::power
