// Simulated RAPL energy counters.
//
// Substitution note (DESIGN.md): the original ANTAREX stack reads Intel RAPL
// MSRs; everything above the counter (monitors, autotuner, RTRM) only
// consumes (energy, time) samples. This class reproduces the RAPL interface
// quirks that client code must handle: a 32-bit counter in micro-joule-scale
// units that wraps around, sampled by difference.
//
// Wrap contract: a reading of `uj` micro-joules (glitch offset included, so it
// may be negative) shows as wrap_uj(uj), which is bit-for-bit
// static_cast<u32>(fmod(fmod(uj, 2^32) + 2^32, 2^32)) for every finite uj,
// computed with one trunc and two compares because the monitor sweep wraps
// every device's counter every period. RaplDomain::counter_uj() and
// rtrm::ShardedCluster's per-device counters both read through this one
// function, so the two cannot drift.
#pragma once

#include <cmath>
#include <string>

#include "support/common.hpp"

namespace antarex::power {

class RaplDomain {
 public:
  explicit RaplDomain(std::string name = "package-0");

  /// Integrate power over an interval (called by the node simulation).
  void accumulate(double power_w, double dt_s);

  /// Raw wrapping counter in micro-joules (32-bit, like MSR_PKG_ENERGY_STATUS
  /// at the default 15.3 uJ unit scaled to 1 uJ for simplicity).
  u32 counter_uj() const;

  /// Fold a micro-joule reading into the 32-bit counter range (see the wrap
  /// contract above).
  static u32 wrap_uj(double uj) {
    constexpr double kWrap = 4294967296.0;  // 2^32
    // fmod(uj, 2^32), exactly: uj * 2^-32, trunc and the product are exact,
    // and for |uj| >= 2^32 the subtracted multiple lies within a factor of
    // two of uj (Sterbenz), so the difference is exact too.
    const double r = uj - std::trunc(uj * (1.0 / kWrap)) * kWrap;
    // Keep the reference's rounding step: r + 2^32 rounds, and can reach
    // 2^32 (tiny negative r) or 2^33 (r just below 2^32), hence two folds.
    double s = r + kWrap;
    if (s >= kWrap) s -= kWrap;
    if (s >= kWrap) s -= kWrap;
    return static_cast<u32>(s);
  }

  /// Wrap-aware difference between two counter reads, in joules.
  static double delta_j(u32 before, u32 after);

  /// Non-wrapping total (ground truth for tests/benches).
  double total_j() const { return total_j_; }

  /// Transient sensor glitch: offsets counter_uj() readings by `joules`
  /// until cleared (0 restores honest readings). Ground truth (total_j) is
  /// untouched — a glitch corrupts what consumers *see*, never the plant's
  /// energy books, so conservation invariants survive injection. Installed by
  /// antarex::fault; injectors must also call
  /// telemetry::mark_samples_poisoned() so measuring consumers can discard.
  void set_reading_offset_j(double joules) { reading_offset_j_ = joules; }
  double reading_offset_j() const { return reading_offset_j_; }

  const std::string& name() const { return name_; }
  void reset();

 private:
  std::string name_;
  double total_j_ = 0.0;
  double reading_offset_j_ = 0.0;
};

/// Convenience sampler: read-before / read-after energy measurement, the
/// idiom every RAPL consumer uses.
class EnergySample {
 public:
  explicit EnergySample(const RaplDomain& domain);
  /// Joules accumulated since construction (wrap-aware).
  double elapsed_j() const;

 private:
  const RaplDomain& domain_;
  u32 start_;
};

}  // namespace antarex::power
