// The hierarchical power-cap coordinator: the govern layer's closed loop.
//
// CapCoordinator takes one cluster-level power budget (the facility cap the
// site negotiated, paper Sec. V) and makes it hold from the top down on the
// SoA plant (rtrm::ShardedCluster):
//
//   cluster cap ──epoch──▶ per-node budgets ──control──▶ per-device ceilings
//
//  - Every simulation step it integrates cluster and per-node energy from
//    the powers the plant just committed (node_power_w).
//  - Every epoch (cfg.epoch_s of simulated time, RAPL-window semantics) it
//    closes the books: a *violation* is an epoch whose mean IT power exceeds
//    the cap. It then renegotiates node budgets from the epoch's measured
//    demand — one flat split over the nodes, demand^fairness_alpha weighted
//    by job priority and the monitor's node weights — always conserving:
//    alive budgets sum to cap * (1 - guard_fraction), the guard band
//    absorbing intra-epoch transients. Dead nodes get zero; their share
//    flows to survivors. A change in the alive set (antarex::fault crashing
//    or repairing a node) triggers an immediate renegotiation on the very
//    step or control period it is observed — crash mid-epoch = automatic
//    redistribution, cap still holds.
//  - Every control period (the plant's own cadence) the plant's per-node
//    controllers clamp device ceilings to the current budgets, *after* the
//    governor proposals — the coordinator has the last word before any power
//    is drawn. Devices running a job of priority != 1 are weighted in the
//    controllers' victim order, so high-priority work is clamped last. With
//    control_period_s == dt_s this yields zero violations by construction.
//  - When budgets alone leave the cluster over the effective cap for
//    kActuatorPatienceEpochs in a row, it walks an escalation ladder of
//    Actuators (DVFS step-down, nav admission) one notch per
//    kActuatorCooldownS; an epoch mean below cap * (1 - kRelaxMargin) walks
//    the ladder back in reverse (constants in coordinator.cpp).
//
// Per-job energy attribution is not the coordinator's job: attach a
// JobEnergyLedger (job_ledger.hpp) where it is read.
//
// Determinism: every callback runs on the simulation thread from serially
// committed state, so the whole loop is byte-identical across 1/2/8 pool
// workers and any shard count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "govern/actuator.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/common.hpp"

namespace antarex::govern {

struct CapCoordinatorConfig {
  double cluster_cap_w = 0.0;  ///< required > 0: the budget to enforce
  double epoch_s = 1.0;        ///< accounting/renegotiation window
  /// Slice of the cap withheld from node budgets; transients (temperature
  /// drift, placement between control steps) eat the guard, not the cap.
  double guard_fraction = 0.08;
  /// Exponent on measured demand in the proportional split: 1 = classic
  /// demand-proportional, 0 = equal shares, >1 favours heavy nodes.
  double fairness_alpha = 1.0;
  /// Weight node shares and device victim order by running jobs' priority.
  bool use_priority = true;
};

struct CapStats {
  u64 epochs = 0;
  u64 violations = 0;           ///< epochs with mean power > cap
  double worst_overshoot_w = 0.0;
  double budget_j = 0.0;        ///< cap * attached simulated seconds
  double consumed_j = 0.0;      ///< integrated IT energy while attached
  u64 restricts = 0;            ///< actuator ladder escalations
  u64 relaxes = 0;
  u64 redistributions = 0;      ///< epochs whose alive set changed
};

class CapCoordinator {
 public:
  CapCoordinator(rtrm::ShardedCluster& cluster, CapCoordinatorConfig cfg);
  /// The plant's hook and observer hold `this`.
  CapCoordinator(const CapCoordinator&) = delete;
  CapCoordinator& operator=(const CapCoordinator&) = delete;

  /// Escalation ladder, walked in add order on restrict and reverse on relax.
  void add_actuator(std::shared_ptr<Actuator> actuator);
  const std::vector<std::shared_ptr<Actuator>>& actuators() const {
    return actuators_;
  }

  /// Claim the cluster's control hook and install a step observer. Works
  /// before the plant's first run. The coordinator must outlive the
  /// cluster's run calls after attach().
  void attach();
  /// Stop acting and observing (the step observer stays registered but goes
  /// inert; plant observers are not individually removable).
  void detach();
  bool attached() const { return attached_; }

  const CapStats& stats() const { return stats_; }
  const CapCoordinatorConfig& config() const { return cfg_; }
  /// Current per-node budgets (W); 0 for nodes considered dead.
  const std::vector<double>& node_budgets_w() const { return budgets_w_; }
  /// External share multiplier applied to node i at the next renegotiation
  /// (default 1.0). antarex::monitor shaves a flagged node's share while an
  /// anomaly episode is open — a throttled or slow node cannot use its
  /// budget, so the headroom flows to healthy nodes. Values clamp to > 0.
  void set_node_weight(std::size_t i, double weight);
  double node_weight(std::size_t i) const;
  /// Mean IT power of the last closed epoch (0 before the first).
  double last_epoch_mean_w() const { return last_epoch_mean_w_; }

  /// JSON report, schema "antarex.govern.capreport/v2".
  std::string json() const;

 private:
  void on_step(double now_s, double it_power_w, double dt_s);
  void on_control(double now_s);
  void close_epoch(double now_s);
  void maybe_redistribute();   ///< renegotiate when the alive set changed
  void renegotiate();          ///< node budgets from the last epoch's demand
  void clear_device_weights();
  void record_ladder_move(double now_s, const std::string& action,
                          std::string cause, double mean_w);

  rtrm::ShardedCluster& cluster_;
  CapCoordinatorConfig cfg_;
  std::vector<std::shared_ptr<Actuator>> actuators_;
  std::vector<double> budgets_w_;
  std::vector<double> ext_weight_;  ///< set_node_weight multipliers
  /// Devices whose controller weight is currently != 1 (reset each control).
  std::vector<u32> weighted_devices_;
  // renegotiate() scratch, reused across epochs.
  std::vector<double> prio_;
  std::vector<double> floor_w_;
  std::vector<double> weight_;
  CapStats stats_;

  bool attached_ = false;
  bool observer_installed_ = false;  ///< one observer per lifetime
  double attach_s_ = 0.0;      ///< sim time of the last attach()
  double epoch_j_ = 0.0;       ///< cluster energy this epoch
  double epoch_t_ = 0.0;       ///< elapsed time this epoch
  std::vector<double> node_epoch_j_;
  double last_epoch_mean_w_ = 0.0;
  std::size_t last_alive_ = 0;
  int over_streak_ = 0;
  int under_streak_ = 0;
  double last_actuation_s_ = -1e300;
  double last_now_s_ = 0.0;  ///< most recent sim time seen by any callback
  /// Ledger record of the last ladder move, awaiting its observed effect
  /// (the next epoch's mean power) — see causal::DecisionLedger.
  u64 pending_decision_seq_ = 0;
};

}  // namespace antarex::govern
