// The legacy object-model plant: Node and Device objects stepped one by one
// on a logical clock, with the dispatcher, the ondemand governor, the thermal
// guard and the cooling model.
//
// rtrm::ShardedCluster is the plant; this one survives only for
// bench_monitor, whose port waits on cheaper observers. It implements what
// that bench runs (ondemand governor, first-fit FCFS placement, no backfill,
// no facility cap, thermal guard on) and rejects any other ClusterConfig.
// tests/test_sharded_cluster.cpp keeps it pinned to the recorded plant
// oracles.
#pragma once

#include <functional>
#include <vector>

#include "power/cooling.hpp"
#include "rtrm/config.hpp"
#include "rtrm/dispatcher.hpp"
#include "rtrm/node.hpp"
#include "support/sim_clock.hpp"

namespace antarex::exec {
class ThreadPool;
}

namespace antarex::rtrm {

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  Node& add_node(Node node);

  const std::vector<Node>& nodes() const { return nodes_; }

  // --- state reads, named as on ShardedCluster so code generic over the
  // plant (the monitor fabric's sampler) is written once -------------------
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t node_device_count(std::size_t node) const {
    return nodes_[node].device_count();
  }
  bool node_failed(std::size_t node) const { return nodes_[node].failed(); }
  double node_base_power_w(std::size_t node) const {
    return nodes_[node].base_power_w();
  }
  u32 device_counter_uj(std::size_t node, std::size_t dev) const {
    return nodes_[node].device(dev).rapl().counter_uj();
  }
  double device_temperature_c(std::size_t node, std::size_t dev) const {
    return nodes_[node].device(dev).temperature_c();
  }
  double device_progress_rate_ups(std::size_t node, std::size_t dev) const {
    return nodes_[node].device(dev).progress_rate_ups();
  }
  bool device_busy(std::size_t node, std::size_t dev) const {
    return nodes_[node].device(dev).busy();
  }

  Dispatcher& dispatcher() { return dispatcher_; }
  const Dispatcher& dispatcher() const { return dispatcher_; }

  void submit(Job job) { dispatcher_.submit(std::move(job)); }

  // --- failures (driven by antarex::fault) -----------------------------------
  /// Crash node i at the current virtual time: its running jobs are
  /// interrupted and handed to the dispatcher for checkpoint rollback and
  /// backoff requeue (or Failed past their retry budget).
  void fail_node(std::size_t i);
  /// Bring node i back online; it accepts work again on the next place().
  void repair_node(std::size_t i);
  std::size_t nodes_down() const { return down_count_; }
  /// Fault actuation, named as on ShardedCluster so the fault driver is
  /// written once over the plant.
  void force_throttle(std::size_t node, std::size_t dev, double duration_s);
  void set_node_slowdown(std::size_t node, double factor);
  void set_reading_offset_j(std::size_t node, std::size_t dev, double joules);

  /// Step the plant's nodes on a thread pool (grain = one node per task).
  /// Completions are still committed serially in node-index order, so the
  /// simulation stays bit-identical to the serial path for any pool size.
  /// Pass nullptr to return to serial stepping.
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }

  /// Advance the simulation by `duration_s` in steps of `dt_s`, running the
  /// control loops every config.control_period_s.
  void run_for(double duration_s, double dt_s = 0.25);

  /// Run until the job queue and all devices drain (or max_s elapses).
  /// Returns true if everything completed.
  bool run_until_idle(double max_s = 1e7, double dt_s = 0.25);

  /// Observe every simulation step after it lands: fn(now_s, it_power_w,
  /// dt_s). Observers fire in attachment order, on the simulation thread.
  void add_step_observer(std::function<void(double, double, double)> fn) {
    ANTAREX_REQUIRE(fn != nullptr, "Cluster: null step observer");
    step_observers_.push_back(std::move(fn));
  }

  const ClusterTelemetry& telemetry() const { return telemetry_; }

 private:
  void control_step();

  ClusterConfig config_;
  std::vector<Node> nodes_;
  Dispatcher dispatcher_;
  power::CoolingModel cooling_;
  /// Thermal-guard P-state ceiling per device, node-major (sized lazily).
  std::vector<std::size_t> guard_ceiling_;
  SimClock clock_;
  double next_control_s_ = 0.0;
  ClusterTelemetry telemetry_;
  std::vector<std::function<void(double, double, double)>> step_observers_;
  exec::ThreadPool* pool_ = nullptr;
  std::size_t down_count_ = 0;
};

}  // namespace antarex::rtrm
