// The simulated cluster plant: the "runtime resource manager (RTRM)" box of
// the paper's Figure 1 together with the machine it manages — dispatcher,
// governors, hierarchical power controllers, thermal guard and cooling
// model, advanced on a logical clock. Control authority (paper Sec. V,
// hierarchical loops): each control period the governor *proposes* a P-state
// per device; the thermal guard and the node power controllers own
// persistent per-device ceilings and clamp the proposal, so a ceiling a
// violation lowered stays down until headroom returns and the loops compose
// instead of fighting.
//
// State is compact structure-of-arrays partitioned into shards of contiguous
// nodes: per-device scalars live in flat arrays, and each shard keeps a
// sorted calendar of *active* nodes so settled (parked) nodes cost nothing
// per tick. Shards step independently — in parallel on the antarex::exec
// pool — and their results merge serially in fixed shard order, so a run is
// byte-identical across 1/2/8 workers and any shard count. The oracle traces
// under tests/golden/plant_oracle_*.txt, recorded from the per-object
// stepper this plant replaced, pin every observable bit for bit
// (tests/test_sharded_cluster.cpp).
//
// Bit-identity is by construction, not by tolerance: every floating-point
// expression (power::PowerModel, power::ThermalModel, device/node stepping,
// governors, controllers, dispatcher scoring) is evaluated through shared
// static helpers, in a fixed order. Parking is an exact-arithmetic shortcut:
// a device parks only when one more step would provably reproduce its state
// bit-for-bit (temperature at the discrete fixed point, idle, no throttle
// decay), and the skipped per-step energy/downtime additions are replayed as
// the identical sequence of additions when the device is next observed or
// mutated.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "power/cooling.hpp"
#include "power/dvfs.hpp"
#include "power/model.hpp"
#include "power/rapl.hpp"
#include "rtrm/config.hpp"
#include "rtrm/job.hpp"
#include "support/sim_clock.hpp"

namespace antarex::exec {
class ThreadPool;
}

namespace antarex::rtrm {

class ShardedCluster;
/// Reaches the private dispatcher and device hooks from the plant tests.
struct PlantTestAccess;

/// FCFS job placement with optional EASY backfill and crash retry over the
/// SoA device arrays: per-type free-device index sets are visited in
/// ascending global device index, so every policy breaks ties towards the
/// first device in node order.
///
/// Resilience (antarex::fault): jobs interrupted by node crashes are restored
/// from their last checkpoint and requeued with per-attempt exponential
/// backoff; a job that keeps dying is reported Failed after max_attempts, so
/// every submitted job ends in exactly one of {Done, Failed}.
class ShardedDispatcher {
 public:
  using EventHook = std::function<void(const char* kind, u64 job_id, double t)>;

  void submit(Job job);
  std::size_t queued() const { return queue_.size(); }
  std::size_t running() const { return running_.size(); }
  std::size_t completed() const { return done_.size(); }
  std::size_t failed() const { return failed_.size(); }
  /// Unordered (swap-erase) view of in-flight jobs.
  const std::vector<Job>& running_jobs() const { return running_; }
  const std::vector<Job>& completed_jobs() const { return done_; }
  const std::vector<Job>& failed_jobs() const { return failed_; }
  u64 requeued_jobs() const { return requeued_; }
  u64 backfilled_jobs() const { return backfilled_; }

  void set_backoff_base_s(double s) { backoff_base_s_ = s; }
  double backoff_base_s() const { return backoff_base_s_; }
  void set_event_hook(EventHook fn) { event_hook_ = std::move(fn); }
  PlacementPolicy policy() const { return policy_; }

  /// Global device index a running job occupies (kInvalidDevice if the id is
  /// not currently running) — the govern layer's job ledger keys on this
  /// instead of comparing device-name strings per node per tick.
  u32 device_of(u64 job_id) const;

  static constexpr u32 kInvalidDevice = 0xffffffffu;

 private:
  friend class ShardedCluster;
  friend struct PlantTestAccess;

  void place(double now_s);
  void on_finished(u64 job_id, double now_s);
  void on_node_failed(const std::vector<std::pair<u64, double>>& interrupted,
                      double now_s);
  u32 choose_device(const Job& job) const;
  void start(Job job, u32 device, double now_s);
  void erase_running(std::size_t pos);
  void emit(const char* kind, u64 job_id, double t) const {
    if (event_hook_) event_hook_(kind, job_id, t);
  }

  ShardedCluster* c_ = nullptr;
  PlacementPolicy policy_ = PlacementPolicy::FirstFit;
  bool backfill_ = false;
  u64 backfilled_ = 0;
  u64 requeued_ = 0;
  double backoff_base_s_ = 2.0;
  std::deque<Job> queue_;
  /// Stale-low lower bound on min(not_before_s) over the queue; lets place()
  /// skip the scan while every queued job is in crash backoff.
  double min_not_before_ = 0.0;
  std::vector<Job> running_;
  std::unordered_map<u64, std::size_t> running_pos_;
  std::unordered_map<u64, u32> device_by_job_;
  std::vector<Job> done_;
  std::vector<Job> failed_;
  EventHook event_hook_;
};

struct ShardedClusterConfig {
  ClusterConfig base;
  std::size_t shards = 8;
};

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterConfig config = {});
  /// The dispatcher points back at its plant, so a plant never moves.
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  // --- topology (frozen at the first run call) ------------------------------
  /// Register a device SKU shared by many device instances; returns its id.
  u32 add_spec(power::DeviceSpec spec);
  const power::DeviceSpec& spec(u32 id) const { return specs_[id]; }

  /// Append a node with the given base power and (spec id, variability)
  /// device list; returns the node index.
  std::size_t add_node(
      double base_power_w,
      const std::vector<std::pair<u32, power::Variability>>& devices);

  std::size_t node_count() const { return node_base_w_.size(); }
  std::size_t device_count() const { return dev_spec_.size(); }
  std::size_t node_device_count(std::size_t node) const {
    return node_dev_count_[node];
  }
  /// Freeze the topology and build the shard table, as the first run call
  /// does; idempotent. Call it before reading shard_count(),
  /// shard_of_node() or shard_node_range() ahead of the first run.
  void finalize();
  std::size_t shard_count() const { return config_.shards; }
  /// Shard owning node i, and the node range [first, last) of shard s.
  std::size_t shard_of_node(std::size_t node) const { return node_shard_[node]; }
  std::pair<std::size_t, std::size_t> shard_node_range(std::size_t s) const;

  // --- jobs -----------------------------------------------------------------
  void submit(Job job) { dispatcher_.submit(std::move(job)); }
  ShardedDispatcher& dispatcher() { return dispatcher_; }
  const ShardedDispatcher& dispatcher() const { return dispatcher_; }

  // --- run ------------------------------------------------------------------
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }
  void run_for(double duration_s, double dt_s = 0.25);
  bool run_until_idle(double max_s = 1e7, double dt_s = 0.25);

  const ClusterConfig& config() const { return config_.base; }
  void set_governor(GovernorPolicy g);
  void set_op_step_down(std::size_t steps);
  std::size_t op_step_down() const { return op_step_down_; }

  // --- failures (driven by antarex::fault) ----------------------------------
  void fail_node(std::size_t node);
  void repair_node(std::size_t node);
  std::size_t nodes_down() const { return down_count_; }
  void force_throttle(std::size_t node, std::size_t dev, double duration_s);
  void set_node_slowdown(std::size_t node, double factor);
  void set_reading_offset_j(std::size_t node, std::size_t dev, double joules);

  // --- observers / control hooks --------------------------------------------
  void set_step_observer(std::function<void(double, double, double)> fn) {
    step_observers_.clear();
    if (fn) step_observers_.push_back(std::move(fn));
  }
  void add_step_observer(std::function<void(double, double, double)> fn) {
    ANTAREX_REQUIRE(fn != nullptr, "ShardedCluster: null step observer");
    step_observers_.push_back(std::move(fn));
  }
  void set_control_hook(std::function<void(ShardedCluster&, double)> fn) {
    control_hook_ = std::move(fn);
  }

  // --- power-cap actuation (govern::CapCoordinator) -------------------------
  /// Run the node's persistent power controller against `budget_w`: one
  /// regular step (may raise a ceiling under headroom), then keep lowering
  /// while the node still sits over its budget, bounded by the total P-state
  /// notches.
  void apply_node_budget(std::size_t node, double budget_w);
  /// Victim weight of a device (global index, as ShardedDispatcher::device_of
  /// returns) in the node controller: over budget it lowers the device with
  /// the highest power/weight, so a weight-2 device is clamped after an
  /// equal-power weight-1 neighbour. Defaults to 1; the weight table is
  /// allocated on the first weight != 1.
  void set_device_weight(u32 device, double weight);
  /// Budget the node's power controller enforces: the last
  /// apply_node_budget() value or facility power-manager allocation.
  double node_budget_w(std::size_t node) const { return node_budget_w_[node]; }
  /// Node power floor: base + every device idle at its lowest P-state (the
  /// same floor the facility power manager computes).
  double node_floor_w(std::size_t node) const;

  // --- state accessors (catch parked state up before reading) ---------------
  double now_s() const { return clock_.now(); }
  const ClusterTelemetry& telemetry() const { return telemetry_; }
  const power::CoolingModel& cooling() const { return cooling_; }
  /// IT power committed by the most recent step (chain-summed in node order).
  double it_power_w() const { return it_power_; }
  double node_power_w(std::size_t node) const { return node_power_[node]; }
  double node_base_power_w(std::size_t node) const {
    return node_base_w_[node];
  }
  bool node_failed(std::size_t node) const { return node_failed_[node] != 0; }
  u64 node_crashes(std::size_t node) const { return node_crashes_[node]; }
  double node_downtime_s(std::size_t node);
  double node_energy_j(std::size_t node);

  std::size_t device_op_index(std::size_t node, std::size_t dev) const {
    return dev_op_[dev_index(node, dev)];
  }
  bool device_busy(std::size_t node, std::size_t dev) const {
    return dev_units_[dev_index(node, dev)] > 0.0;
  }
  bool device_throttled(std::size_t node, std::size_t dev) const {
    return dev_throttle_s_[dev_index(node, dev)] > 0.0;
  }
  double device_slowdown(std::size_t node, std::size_t dev) const {
    return dev_slowdown_[dev_index(node, dev)];
  }
  double device_temperature_c(std::size_t node, std::size_t dev) const {
    return dev_temp_[dev_index(node, dev)];
  }
  double device_busy_seconds(std::size_t node, std::size_t dev) const {
    return dev_busy_s_[dev_index(node, dev)];
  }
  u64 device_completed_jobs(std::size_t node, std::size_t dev) const {
    return dev_done_[dev_index(node, dev)];
  }
  u64 device_interrupted_jobs(std::size_t node, std::size_t dev) const {
    return dev_interrupted_[dev_index(node, dev)];
  }
  /// Work units per second the device makes right now; 0 while idle.
  double device_progress_rate_ups(std::size_t node, std::size_t dev) const {
    const u32 d = dev_index(node, dev);
    if (!(dev_units_[d] > 0.0)) return 0.0;
    return 1.0 / (dev_wl_[d].execution_time_s(eff_op(d)) * dev_slowdown_[d]);
  }
  double device_energy_j(std::size_t node, std::size_t dev);
  std::size_t device_op_count(std::size_t node, std::size_t dev) const {
    return specs_[dev_spec_[dev_index(node, dev)]].dvfs.size();
  }
  /// Node and current power of a device by global index (the index
  /// ShardedDispatcher::device_of returns).
  std::size_t device_node(u32 device) const {
    ANTAREX_REQUIRE(device < device_count(),
                    "ShardedCluster: device index out of range");
    return dev_node_[device];
  }
  double device_power_w(u32 device) const {
    ANTAREX_REQUIRE(device < device_count(),
                    "ShardedCluster: device index out of range");
    return fresh_device_power_w(device);
  }
  /// Wrapping 32-bit RAPL counter view (glitch offset applied), identical to
  /// power::RaplDomain::counter_uj. Inline because the monitor sweep reads it
  /// for every device every period; the catch-up test skips the out-of-line
  /// call for devices that are already current.
  u32 device_counter_uj(std::size_t node, std::size_t dev) {
    const u32 d = dev_index(node, dev);
    if (dev_upto_[d] != steps_done_) catch_up_device(d);
    return dev_counter_uj(d);
  }

  // --- scale diagnostics ----------------------------------------------------
  /// Plant steps taken so far.
  u64 steps() const { return steps_done_; }
  /// Device steps that ran the full step math (parked devices excluded) —
  /// the deterministic metric the exascale bench gates: parking regressions
  /// show up here before they show up in wall time.
  u64 full_device_steps() const;
  /// Resident bytes of the SoA state (arrays + shard calendars + specs).
  std::size_t approx_state_bytes() const;

 private:
  friend class ShardedDispatcher;
  friend struct PlantTestAccess;

  struct Shard {
    u32 begin_node = 0;
    u32 end_node = 0;
    std::vector<u32> active;  ///< ascending indices of unparked nodes
    std::vector<std::pair<u32, u64>> finished;  ///< (device, job) this step
    /// Upper bound on parked-device temperatures (never shrinks; sound for
    /// the monotone max-temperature telemetry because a parked temperature
    /// already entered the running max on the step the device parked).
    double parked_max_c = 0.0;
    double step_max_c = 0.0;
    bool power_changed = false;
    u64 full_steps = 0;
  };

  u32 dev_index(std::size_t node, std::size_t dev) const {
    ANTAREX_REQUIRE(node < node_count() && dev < node_dev_count_[node],
                    "ShardedCluster: device index out of range");
    return node_dev_begin_[node] + static_cast<u32>(dev);
  }
  const power::OperatingPoint& eff_op(u32 d) const {
    return specs_[dev_spec_[d]].dvfs.at(dev_throttle_s_[d] > 0.0 ? 0
                                                                 : dev_op_[d]);
  }
  u32 dev_counter_uj(u32 d) const {
    return power::RaplDomain::wrap_uj((dev_energy_j_[d] + dev_offset_j_[d]) * 1e6);
  }
  double fresh_device_power_w(u32 d) const;
  double fresh_node_power_w(std::size_t node) const;

  void step_shard(std::size_t s, double dt_s);
  void control_step();
  void governor_step(u32 d, GovernorPolicy policy, double base_share);
  void guard_step(u32 d);
  void power_manager_step();
  bool node_controller_step(std::size_t node);
  void pm_clamp(std::size_t node);
  void set_dev_op(u32 d, std::size_t op);
  void assign_device(u32 d, const power::WorkloadModel& w, double units,
                     u64 job_id);

  /// Replay the per-step additions a parked entity skipped, using the step
  /// size in force since the last global sync.
  void catch_up_device(u32 d);
  void catch_up_node(std::size_t node);
  /// Catch up + unpark a device (and reactivate its node in the shard
  /// calendar) before any serial mutation or stateful read.
  void touch_device(u32 d);
  void touch_node(std::size_t node);
  void global_sync();

  void free_insert(u32 d);
  void free_erase(u32 d);

  ShardedClusterConfig config_;
  ShardedDispatcher dispatcher_;
  power::CoolingModel cooling_;
  SimClock clock_;
  double next_control_s_ = 0.0;
  ClusterTelemetry telemetry_;
  std::vector<std::function<void(double, double, double)>> step_observers_;
  std::function<void(ShardedCluster&, double)> control_hook_;
  std::size_t op_step_down_ = 0;
  exec::ThreadPool* pool_ = nullptr;
  bool finalized_ = false;

  // Shared SKU table (one entry per spec, not per device).
  std::vector<power::DeviceSpec> specs_;
  std::vector<double> spec_vnom_;

  // Device SoA (size = total devices, node-major order).
  std::vector<u32> dev_spec_;
  std::vector<power::Variability> dev_var_;
  std::vector<u32> dev_node_;
  std::vector<u32> dev_op_;
  std::vector<double> dev_temp_;
  std::vector<double> dev_energy_j_;
  std::vector<double> dev_offset_j_;
  std::vector<double> dev_units_;
  std::vector<u64> dev_job_;
  std::vector<power::WorkloadModel> dev_wl_;
  std::vector<double> dev_busy_s_;
  std::vector<u64> dev_done_;
  std::vector<u64> dev_interrupted_;
  std::vector<double> dev_throttle_s_;
  std::vector<double> dev_slowdown_;
  std::vector<u32> dev_guard_ceil_;
  std::vector<u32> dev_pm_ceil_;
  std::vector<double> dev_weight_;  ///< controller victim weights (lazy)
  std::vector<double> dev_power_;  ///< post-step power (idle power if parked)
  std::vector<u8> dev_parked_;
  std::vector<u64> dev_upto_;  ///< steps fully applied to this device

  // Node SoA.
  std::vector<double> node_base_w_;
  std::vector<u32> node_dev_begin_;
  std::vector<u32> node_dev_count_;
  std::vector<u8> node_failed_;
  std::vector<u64> node_crashes_;
  std::vector<double> node_downtime_s_;
  std::vector<double> node_energy_j_;
  std::vector<double> node_power_;
  std::vector<double> node_budget_w_;  ///< per-node controller budget
  std::vector<u8> node_parked_;
  std::vector<u8> node_quiet_;  ///< control loop provably a no-op
  std::vector<u64> node_upto_;
  std::vector<u32> node_shard_;

  std::vector<Shard> shards_;
  std::size_t down_count_ = 0;
  double it_power_ = 0.0;
  bool it_dirty_ = true;
  u64 steps_done_ = 0;
  double sync_dt_ = 0.0;  ///< step size shared by all skipped steps

  // Dispatcher support: free (idle, alive-node) devices per type, plus the
  // full per-type device lists for backfill reservations.
  std::array<std::set<u32>, 3> free_by_type_;
  std::array<std::vector<u32>, 3> devices_of_type_;

  // Facility power-manager scratch (avoids per-control allocation at scale).
  std::vector<double> pm_floor_;
  std::vector<double> pm_demand_;
};

/// A seed-deterministic cluster description: tests and scale benches build
/// identical plants from one blueprint.
struct ClusterBlueprint {
  struct NodeDef {
    double base_power_w = 60.0;
    std::vector<std::pair<u32, power::Variability>> devices;
  };
  std::vector<power::DeviceSpec> specs;
  std::vector<NodeDef> nodes;

  void build(ShardedCluster& cluster) const;

  /// Heterogeneous Mont-Blanc-style mix (thin CPU / MIC / GPU nodes) with
  /// per-instance variability drawn from exec::stream_seed(seed, node) — the
  /// blueprint is independent of shard count, thread count, and construction
  /// order.
  static ClusterBlueprint exascale(u64 seed, std::size_t node_count,
                                   double sigma = 0.05);
};

}  // namespace antarex::rtrm
