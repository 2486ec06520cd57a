#include "govern/sharded_cap.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace antarex::govern {

ShardedCapCoordinator::ShardedCapCoordinator(rtrm::ShardedCluster& cluster,
                                             ShardedCapConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  ANTAREX_REQUIRE(cfg_.cluster_cap_w > 0.0,
                  "ShardedCapCoordinator: non-positive cluster cap");
  ANTAREX_REQUIRE(cfg_.epoch_s > 0.0,
                  "ShardedCapCoordinator: non-positive epoch");
  ANTAREX_REQUIRE(cfg_.guard_fraction >= 0.0 && cfg_.guard_fraction < 1.0,
                  "ShardedCapCoordinator: guard_fraction must be in [0, 1)");
  ANTAREX_REQUIRE(cfg_.fairness_alpha >= 0.0,
                  "ShardedCapCoordinator: negative fairness_alpha");
}

void ShardedCapCoordinator::attach() {
  ANTAREX_REQUIRE(!attached_, "ShardedCapCoordinator: already attached");
  const std::size_t n = cluster_.node_count();
  ANTAREX_REQUIRE(n > 0, "ShardedCapCoordinator: cluster has no nodes");
  cluster_.finalize();  // renegotiate() walks the shard table
  budgets_w_.assign(n, 0.0);
  node_energy_mark_.assign(n, 0.0);
  node_demand_w_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    node_energy_mark_[i] = cluster_.node_energy_j(i);
  epoch_j_ = 0.0;
  epoch_t_ = 0.0;
  last_alive_ = n - cluster_.nodes_down();
  attached_ = true;
  renegotiate();  // initial budgets from floors (no demand observed yet)

  cluster_.set_control_hook([this](rtrm::ShardedCluster&, double now_s) {
    if (attached_) on_control(now_s);
  });
  // Observers are not removable; install exactly one across the lifetime.
  if (!observer_installed_) {
    observer_installed_ = true;
    cluster_.add_step_observer([this](double now_s, double p_w, double dt_s) {
      if (attached_) on_step(now_s, p_w, dt_s);
    });
  }
}

void ShardedCapCoordinator::detach() {
  if (!attached_) return;
  if (epoch_t_ > 0.0) close_epoch();  // partial final epoch
  attached_ = false;
  cluster_.set_control_hook(nullptr);
}

void ShardedCapCoordinator::on_step(double /*now_s*/, double it_power_w,
                                    double dt_s) {
  // A crash/repair must redistribute before the next control step: the dead
  // node's share flows to survivors, a repaired node regains a floor budget.
  const std::size_t alive = cluster_.node_count() - cluster_.nodes_down();
  if (alive != last_alive_) {
    last_alive_ = alive;
    ++stats_.redistributions;
    TELEMETRY_COUNT("govern.redistributions", 1);
    renegotiate();
  }
  stats_.consumed_j += it_power_w * dt_s;
  epoch_j_ += it_power_w * dt_s;
  epoch_t_ += dt_s;
  if (epoch_t_ + 1e-9 >= cfg_.epoch_s) close_epoch();
}

void ShardedCapCoordinator::on_control(double /*now_s*/) {
  for (std::size_t i = 0; i < budgets_w_.size(); ++i) {
    if (cluster_.node_failed(i) || budgets_w_[i] <= 0.0) continue;
    cluster_.apply_node_budget(i, budgets_w_[i]);
  }
}

void ShardedCapCoordinator::close_epoch() {
  const double mean_w = epoch_t_ > 0.0 ? epoch_j_ / epoch_t_ : 0.0;
  last_epoch_mean_w_ = mean_w;
  ++stats_.epochs;
  if (mean_w > cfg_.cluster_cap_w + 1e-9) {
    ++stats_.violations;
    stats_.worst_overshoot_w =
        std::max(stats_.worst_overshoot_w, mean_w - cfg_.cluster_cap_w);
    TELEMETRY_COUNT("govern.cap_violations", 1);
  }
  TELEMETRY_GAUGE("govern.epoch_mean_w", mean_w);
  TELEMETRY_GAUGE("govern.cap_headroom_w", cfg_.cluster_cap_w - mean_w);

  // Per-node demand from the engine's batched energy counters: one read per
  // node per *epoch*, the only place the coordinator touches every node.
  for (std::size_t i = 0; i < budgets_w_.size(); ++i) {
    const double e = cluster_.node_energy_j(i);
    node_demand_w_[i] =
        epoch_t_ > 0.0 ? (e - node_energy_mark_[i]) / epoch_t_ : 0.0;
    node_energy_mark_[i] = e;
  }
  renegotiate();
  epoch_j_ = 0.0;
  epoch_t_ = 0.0;
}

void ShardedCapCoordinator::renegotiate() {
  const std::size_t n = cluster_.node_count();
  const std::size_t n_shards = cluster_.shard_count();
  budgets_w_.assign(n, 0.0);
  shard_budget_w_.assign(n_shards, 0.0);
  const double eff_cap = cfg_.cluster_cap_w * (1.0 - cfg_.guard_fraction);

  // Pass 1: per-node floors and demand weights, aggregated per shard.
  std::vector<double> floor_w(n, 0.0);
  std::vector<double> weight(n, 0.0);
  std::vector<double> shard_floor(n_shards, 0.0);
  std::vector<double> shard_weight(n_shards, 0.0);
  double floor_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_.node_failed(i)) continue;  // dead: zero budget
    floor_w[i] = cluster_.node_floor_w(i);
    const double demand = std::max(node_demand_w_[i], floor_w[i]);
    weight[i] = std::pow(demand, cfg_.fairness_alpha);
    const std::size_t s = cluster_.shard_of_node(i);
    shard_floor[s] += floor_w[i];
    shard_weight[s] += weight[i];
    floor_total += floor_w[i];
  }
  if (floor_total <= 0.0) return;  // every node down: nothing draws power

  if (eff_cap <= floor_total) {
    // Infeasible even at idle: scale the floors; controllers pin P-state 0.
    for (std::size_t i = 0; i < n; ++i)
      budgets_w_[i] = eff_cap * floor_w[i] / floor_total;
    for (std::size_t s = 0; s < n_shards; ++s)
      shard_budget_w_[s] = eff_cap * shard_floor[s] / floor_total;
    return;
  }

  // Pass 2: split the distributable slice across shards by aggregate demand
  // weight, then within each shard across its alive nodes the same way.
  const double distributable = eff_cap - floor_total;
  double weight_total = 0.0;
  for (std::size_t s = 0; s < n_shards; ++s) weight_total += shard_weight[s];
  for (std::size_t s = 0; s < n_shards; ++s) {
    const double share =
        weight_total > 0.0 ? shard_weight[s] / weight_total
                           : 1.0 / static_cast<double>(n_shards);
    const double shard_slice = distributable * share;
    shard_budget_w_[s] = shard_floor[s] + shard_slice;
    const auto [first, last] = cluster_.shard_node_range(s);
    for (std::size_t i = first; i < last; ++i) {
      if (cluster_.node_failed(i)) continue;
      const double node_share =
          shard_weight[s] > 0.0
              ? weight[i] / shard_weight[s]
              : (last > first ? 1.0 / static_cast<double>(last - first) : 0.0);
      budgets_w_[i] = floor_w[i] + shard_slice * node_share;
    }
  }
}

}  // namespace antarex::govern
