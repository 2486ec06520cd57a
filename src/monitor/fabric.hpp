// antarex::monitor — the assembled monitoring fabric.
//
// MonitorFabric wires the Examon pipeline onto the live plant, an
// rtrm::ShardedCluster:
//
//   Sampler ──frames──▶ Broker ──drain──▶ ShardAggregator
//                                    └──▶ AnomalyDetector ──episodes──▶ hooks
//
// attach() installs one step observer, the sampler. Every sample_period_s of
// simulated time it samples all alive nodes — power from RAPL counter
// *deltas* (what a real out-of-band sampler reads, glitches included),
// hottest-device temperature, utilization, and the observable progress
// rate — publishes one MetricFrame per node, drains the broker, and rolls
// the aggregation step.
//
// The per-device reads are the sweep's hot loop (every device of every node,
// every period). ShardedCluster defines the four the sampler calls inline,
// and its counter read wraps through power::RaplDomain::wrap_uj, which calls
// no fmod.
// Everything runs on the simulation thread; results are byte-identical at
// any exec worker count.
//
// Memory split: the Sampler keeps one previous RAPL reading per device (edge
// state, it lives with the node in the real system); the fabric core —
// broker + aggregator + detector — is O(shards + K), independent of node
// count, which approx_bytes() reports and bench_monitor gates.
//
// feed_governance() (episodes -> govern::CapCoordinator node weights) and
// install_anomaly_policies() (episodes -> obs policies) close the loop, so
// detection drives actuation, not just dashboards.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "monitor/aggregate.hpp"
#include "monitor/broker.hpp"
#include "monitor/detector.hpp"

namespace antarex::obs {
class PolicyEngine;
}
namespace antarex::govern {
class CapCoordinator;
}
namespace antarex::rtrm {
class ShardedCluster;
}

namespace antarex::monitor {

struct FabricConfig {
  u16 shards = 8;               ///< topic shards (node -> node % shards)
  double sample_period_s = 1.0; ///< min simulated seconds between samples
  BrokerConfig broker;
  AggregatorConfig aggregator;
  DetectorConfig detector;
};

class MonitorFabric {
 public:
  using EpisodeListener = std::function<void(const Episode&, bool opened)>;

  explicit MonitorFabric(FabricConfig cfg = {});

  /// Install the sampling step observer on `cluster` and subscribe the
  /// aggregator and detector to the broker. The fabric must outlive the
  /// cluster's run. Call once. Sampling reads the ShardedCluster's batched
  /// per-device counters (a read catches parked state up without waking it,
  /// so monitoring never perturbs the plant or its parking).
  void attach(rtrm::ShardedCluster& cluster);

  const FabricConfig& config() const { return cfg_; }
  u16 shard_of(std::size_t node) const {
    return static_cast<u16>(node % cfg_.shards);
  }

  Broker& broker() { return broker_; }
  const Broker& broker() const { return broker_; }
  ShardAggregator& aggregator() { return aggregator_; }
  const ShardAggregator& aggregator() const { return aggregator_; }
  AnomalyDetector& detector() { return detector_; }
  const AnomalyDetector& detector() const { return detector_; }

  /// Episode open/close fan-out (the detector's single hook, multiplexed).
  void add_episode_listener(EpisodeListener fn);

  u64 samples() const { return samples_; }  ///< sampling sweeps taken
  /// Wall-clock seconds spent inside the fabric's observer (sampling,
  /// publishing, draining, detection) — the numerator of bench_monitor's
  /// overhead figure.
  double self_seconds() const { return self_s_; }

  /// Fabric-core memory bound: broker + aggregator + detector. Excludes the
  /// per-device sampler edge state, reported separately.
  std::size_t approx_bytes() const;
  std::size_t sampler_bytes() const;

  /// Cluster-health JSON, schema "antarex.monitor.health/v1": per-metric
  /// cluster stats and quantiles, per-shard means, retention-ring history,
  /// hot nodes, and anomaly episodes. The report tool renders this as the
  /// shard heatmap + anomaly timeline.
  std::string health_json() const;

 private:
  void on_step(rtrm::ShardedCluster& plant, double now_s);
  void sample(rtrm::ShardedCluster& plant, double now_s, double elapsed_s);

  FabricConfig cfg_;
  Broker broker_;
  ShardAggregator aggregator_;
  AnomalyDetector detector_;
  std::vector<EpisodeListener> listeners_;

  bool attached_ = false;
  bool primed_ = false;          ///< first sweep only primes RAPL readings
  double next_sample_s_ = 0.0;
  double last_sample_s_ = 0.0;
  std::vector<u32> prev_uj_;     ///< per-device previous RAPL reading
  std::vector<std::size_t> dev_base_;  ///< node -> first index in prev_uj_
  u64 samples_ = 0;
  double self_s_ = 0.0;
};

/// While an anomaly episode is open on a node, multiply its budget share in
/// the cap coordinator (which drives rtrm::ShardedCluster) by `penalty`
/// (< 1); restore 1.0 on close. Sensor-glitch (PowerSpike) episodes leave
/// the weights alone. Registers an episode listener — call after
/// constructing both, before the run.
void feed_governance(MonitorFabric& fabric, govern::CapCoordinator& coordinator,
                     double penalty = 0.25);

/// Thresholds for the monitor-driven obs policies.
struct AnomalyPolicyConfig {
  double active_alert = 1.0;   ///< monitor.anomaly_active >= this fires
  double cooldown_s = 5.0;
};

/// Install monitor policies on `engine`:
///  - monitor.anomaly_alert  (counts obs.alerts.anomaly while any episode is
///    open, re-firing every cooldown_s)
void install_anomaly_policies(obs::PolicyEngine& engine,
                              AnomalyPolicyConfig config = {});

}  // namespace antarex::monitor
