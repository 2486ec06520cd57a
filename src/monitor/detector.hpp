// antarex::monitor — online anomaly detection over the metric stream.
//
// Per-(shard, metric) robust baselines: an EWMA of the level and an
// exponentially-weighted MAD of the deviation. A sample's z-score is
//
//   z = (x - ewma) / max(1.4826 * mad, kRelFloor * |ewma|, kAbsFloor*)
//
// (1.4826 scales MAD to a standard deviation under normality; the floors
// keep z finite on quiet streams). Baselines learn only from unflagged busy
// samples, so an anomaly cannot teach the detector that it is normal. Taught
// samples are additionally winsorized to m +- kClipZ scale units: during the
// warmup window z-flags cannot veto yet, and one wild sample (a RAPL counter
// wrap, say) must not be allowed to poison the level and MAD for the tens of
// samples an EWMA needs to forget it.
//
// Four anomaly kinds map onto the fault model:
//   ThermalRunaway  temperature z above threshold
//   PowerSpike      power z above threshold (RAPL sensor glitches show up
//                   here: the sampler reads counter deltas, so a glitch
//                   offset lands in exactly one sample)
//   Throttle        progress drop with a matching power drop (a device
//                   pinned to its lowest P-state does less and draws less)
//   SlowNode        progress drop at normal power (same work rate per busy
//                   second, just slower — e.g. a degraded node)
//
// Hysteresis turns per-sample flags into episodes: open after kOpenAfter
// consecutive flagged samples (1 for PowerSpike — glitches are one sample),
// close after kQuietClose consecutive quiet ones. Idle nodes (util below
// kMinUtil) are never judged; their samples count as quiet.
//
// Memory: baselines are O(shards * metrics); per-node state exists only for
// currently-flagged nodes, capped at DetectorConfig::max_tracked (overflow
// counted). Closed episodes are retained up to kMaxClosed for ground-truth
// evaluation. The tuning values are the AnomalyDetector::k* constants.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "monitor/topic.hpp"
#include "support/common.hpp"

namespace antarex::monitor {

enum class AnomalyKind : u8 { ThermalRunaway, PowerSpike, Throttle, SlowNode };
constexpr std::size_t kAnomalyKindCount = 4;
const char* anomaly_kind_name(AnomalyKind k);

struct DetectorConfig {
  std::size_t max_tracked = 1024;  ///< concurrently tracked flagged nodes
};

/// One contiguous anomaly on one node.
struct Episode {
  u32 node = 0;
  u16 shard = 0;
  AnomalyKind kind = AnomalyKind::ThermalRunaway;
  double open_t_s = 0.0;
  double close_t_s = 0.0;  ///< == open_t_s while still open
  double peak_z = 0.0;
  u32 samples = 0;  ///< flagged samples inside the episode
  bool open = false;
};

class AnomalyDetector {
 public:
  /// Called on every episode transition: opened=true right after the episode
  /// opens, opened=false right after it closes. Runs on the sim thread.
  using Hook = std::function<void(const Episode&, bool opened)>;

  /// |z| that flags a sample.
  static constexpr double kZOpen = 4.0;
  /// Power z below -this => Throttle, else SlowNode.
  static constexpr double kPowerDropZ = 2.0;
  /// Consecutive flags to open an episode.
  static constexpr u32 kOpenAfter = 2;
  /// PowerSpike opens immediately (one-sample).
  static constexpr u32 kSpikeOpenAfter = 1;
  /// Consecutive quiet samples to close.
  static constexpr u32 kQuietClose = 3;
  /// Baseline samples before judging a stream.
  static constexpr u64 kWarmupSamples = 8;
  /// Only judge nodes at least this busy.
  static constexpr double kMinUtil = 0.5;
  static constexpr double kEwmaAlpha = 0.05;
  static constexpr double kMadBeta = 0.05;
  /// Scale floor as a fraction of the level.
  static constexpr double kRelFloor = 0.04;
  /// Winsorize taught samples at this many scales.
  static constexpr double kClipZ = 8.0;
  static constexpr double kAbsFloorPowerW = 2.0;
  static constexpr double kAbsFloorTempC = 1.5;
  static constexpr double kAbsFloorProgress = 0.02;
  /// Retained closed episodes.
  static constexpr std::size_t kMaxClosed = 65536;

  AnomalyDetector(std::size_t shards, DetectorConfig cfg = {});

  void set_hook(Hook hook) { hook_ = std::move(hook); }

  /// Ingest one frame (subscribe to the broker's `#`).
  void observe(const MetricFrame& frame);

  /// Episodes closed so far, in close order.
  const std::vector<Episode>& closed() const { return closed_; }
  /// Closed + still-open episodes (open ones last, node order).
  std::vector<Episode> episodes() const;
  std::size_t active() const { return active_; }
  u64 flagged_samples() const { return flagged_samples_; }
  u64 tracked_overflow() const { return tracked_overflow_; }
  u64 closed_overflow() const { return closed_overflow_; }

  std::size_t approx_bytes() const;
  void clear();

 private:
  struct Baseline {
    double m = 0.0;
    double mad = 0.0;
    u64 n = 0;
  };
  struct KindState {
    u32 run = 0;    ///< consecutive flagged samples
    u32 quiet = 0;  ///< consecutive quiet samples while open
    bool open = false;
    Episode episode;
    u64 ledger_seq = 0;  ///< causal::DecisionLedger record awaiting close
  };
  struct NodeTrack {
    KindState kinds[kAnomalyKindCount];
  };

  Baseline& baseline(u16 shard, Metric m) {
    return baselines_[static_cast<std::size_t>(shard) * kMetricCount +
                      static_cast<std::size_t>(m)];
  }
  double scale_for(const Baseline& b, Metric m) const;
  double z_for(const Baseline& b, Metric m, double x) const;
  void update_baseline(Baseline& b, Metric m, double x);
  void step_kind(NodeTrack& track, AnomalyKind kind, bool flagged, double z,
                 const MetricFrame& frame);
  void open_episode(KindState& ks, AnomalyKind kind, double z,
                    const MetricFrame& frame);
  void close_episode(KindState& ks, double t_s);

  std::size_t shards_;
  std::size_t max_tracked_;
  Hook hook_;
  std::vector<Baseline> baselines_;  ///< shards * metrics
  std::map<u32, NodeTrack> tracked_;
  std::vector<Episode> closed_;
  std::size_t active_ = 0;
  u64 flagged_samples_ = 0;
  u64 tracked_overflow_ = 0;
  u64 closed_overflow_ = 0;
};

}  // namespace antarex::monitor
