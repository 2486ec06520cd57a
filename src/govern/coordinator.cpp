#include "govern/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "causal/ledger.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::govern {

namespace {
constexpr u32 kNoDevice = rtrm::ShardedDispatcher::kInvalidDevice;
constexpr int kActuatorPatienceEpochs = 2;  ///< over-cap epochs before escalating
constexpr double kActuatorCooldownS = 4.0;  ///< min seconds between ladder moves
/// Relax when the epoch mean sits below cap * (1 - kRelaxMargin).
constexpr double kRelaxMargin = 0.25;
}  // namespace

CapCoordinator::CapCoordinator(rtrm::ShardedCluster& cluster,
                               CapCoordinatorConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  ANTAREX_REQUIRE(cfg_.cluster_cap_w > 0.0,
                  "CapCoordinator: non-positive cluster cap");
  ANTAREX_REQUIRE(cfg_.epoch_s > 0.0, "CapCoordinator: non-positive epoch");
  ANTAREX_REQUIRE(cfg_.guard_fraction >= 0.0 && cfg_.guard_fraction < 1.0,
                  "CapCoordinator: guard_fraction must be in [0, 1)");
  ANTAREX_REQUIRE(cfg_.fairness_alpha >= 0.0,
                  "CapCoordinator: negative fairness_alpha");
}

void CapCoordinator::add_actuator(std::shared_ptr<Actuator> actuator) {
  ANTAREX_REQUIRE(actuator != nullptr, "CapCoordinator: null actuator");
  actuators_.push_back(std::move(actuator));
}

void CapCoordinator::attach() {
  ANTAREX_REQUIRE(!attached_, "CapCoordinator: already attached");
  const std::size_t n = cluster_.node_count();
  ANTAREX_REQUIRE(n > 0, "CapCoordinator: cluster has no nodes");
  cluster_.finalize();  // the per-node tables below must not go stale
  node_epoch_j_.assign(n, 0.0);
  budgets_w_.assign(n, 0.0);
  epoch_j_ = 0.0;
  epoch_t_ = 0.0;
  over_streak_ = under_streak_ = 0;
  attach_s_ = cluster_.now_s();
  last_alive_ = n - cluster_.nodes_down();
  attached_ = true;
  renegotiate();  // initial budgets from floors (no demand observed yet)

  cluster_.set_control_hook([this](rtrm::ShardedCluster&, double now_s) {
    if (attached_) on_control(now_s);
  });
  // Plant observers are not removable, so install exactly one across the
  // coordinator's lifetime — a re-attach after detach() must not end up with
  // two live observers double-counting every step.
  if (!observer_installed_) {
    observer_installed_ = true;
    cluster_.add_step_observer([this](double now_s, double p_w, double dt_s) {
      if (attached_) on_step(now_s, p_w, dt_s);
    });
  }
}

void CapCoordinator::detach() {
  if (!attached_) return;
  if (epoch_t_ > 0.0) close_epoch(cluster_.now_s());  // partial final epoch
  attached_ = false;
  cluster_.set_control_hook(nullptr);
  clear_device_weights();
}

void CapCoordinator::clear_device_weights() {
  for (const u32 d : weighted_devices_) cluster_.set_device_weight(d, 1.0);
  weighted_devices_.clear();
}

void CapCoordinator::on_control(double now_s) {
  last_now_s_ = now_s;
  maybe_redistribute();
  // Victim ordering by job priority: devices running high-priority jobs are
  // clamped last. Only devices whose job has priority != 1 carry a weight.
  if (cfg_.use_priority) {
    clear_device_weights();
    const rtrm::ShardedDispatcher& disp = cluster_.dispatcher();
    for (const auto& job : disp.running_jobs()) {
      if (job.priority <= 0.0 || job.priority == 1.0) continue;
      const u32 d = disp.device_of(job.id);
      if (d == kNoDevice) continue;
      cluster_.set_device_weight(d, job.priority);
      weighted_devices_.push_back(d);
    }
  }
  // Hold the line *before* the next plant step draws power: the plant's
  // node controller keeps lowering until each node fits its budget.
  for (std::size_t i = 0; i < budgets_w_.size(); ++i) {
    if (cluster_.node_failed(i) || budgets_w_[i] <= 0.0) continue;
    cluster_.apply_node_budget(i, budgets_w_[i]);
  }
}

// React to crashes/repairs immediately, not at the epoch boundary: a dead
// node's share must flow to survivors before the next control step, and a
// repaired node needs a (floor) budget before it is allowed to draw. Called
// from on_control (ahead of the clamp, so no unbudgeted power is ever drawn)
// and from on_step (covering faults applied mid-plant-step).
void CapCoordinator::maybe_redistribute() {
  const std::size_t alive = cluster_.node_count() - cluster_.nodes_down();
  if (alive == last_alive_) return;
  ++stats_.redistributions;
  TELEMETRY_COUNT("govern.redistributions", 1);

  causal::DecisionRecord rec;
  rec.t_s = last_now_s_;
  rec.actor = "govern.coordinator";
  rec.action = "renegotiate";
  rec.cause = format("alive set changed %zu -> %zu", last_alive_, alive);
  rec.cause_value = static_cast<double>(alive);
  const u64 seq = causal::DecisionLedger::global().record(std::move(rec));

  last_alive_ = alive;
  renegotiate();

  double budget_sum = 0.0;
  for (double b : budgets_w_) budget_sum += b;
  causal::DecisionLedger::global().note_effect(
      seq, format("budgets resplit: %.1f W across %zu nodes", budget_sum,
                  alive),
      budget_sum);
}

void CapCoordinator::on_step(double now_s, double it_power_w, double dt_s) {
  last_now_s_ = now_s;
  maybe_redistribute();

  stats_.consumed_j += it_power_w * dt_s;
  epoch_j_ += it_power_w * dt_s;
  epoch_t_ += dt_s;
  // The powers the plant just committed; a dead node reads 0.
  for (std::size_t i = 0; i < node_epoch_j_.size(); ++i)
    node_epoch_j_[i] += cluster_.node_power_w(i) * dt_s;

  if (epoch_t_ + 1e-9 >= cfg_.epoch_s) close_epoch(now_s);
}

void CapCoordinator::record_ladder_move(double now_s,
                                        const std::string& action,
                                        std::string cause, double mean_w) {
  causal::DecisionRecord rec;
  rec.t_s = now_s;
  rec.actor = "govern.coordinator";
  rec.action = action;
  rec.cause = std::move(cause);
  rec.cause_value = mean_w;
  pending_decision_seq_ =
      causal::DecisionLedger::global().record(std::move(rec));
  last_actuation_s_ = now_s;
}

void CapCoordinator::close_epoch(double now_s) {
  const double mean_w = epoch_t_ > 0.0 ? epoch_j_ / epoch_t_ : 0.0;
  last_epoch_mean_w_ = mean_w;
  ++stats_.epochs;

  // The observed effect of the previous epoch's ladder move is this epoch's
  // mean power — close that decision's loop in the provenance ledger.
  if (pending_decision_seq_ != 0) {
    causal::DecisionLedger::global().note_effect(
        pending_decision_seq_, format("next epoch mean %.1f W", mean_w),
        mean_w);
    pending_decision_seq_ = 0;
  }

  if (mean_w > cfg_.cluster_cap_w + 1e-9) {
    ++stats_.violations;
    stats_.worst_overshoot_w =
        std::max(stats_.worst_overshoot_w, mean_w - cfg_.cluster_cap_w);
    TELEMETRY_COUNT("govern.cap_violations", 1);
  }
  TELEMETRY_GAUGE("govern.epoch_mean_w", mean_w);
  TELEMETRY_GAUGE("govern.cap_headroom_w", cfg_.cluster_cap_w - mean_w);

  renegotiate();

  // Escalation ladder: budgets failing to keep the mean under the effective
  // cap for kActuatorPatienceEpochs consecutive epochs means the plant needs
  // a coarser knob. Ample headroom walks back in reverse order.
  const double eff_cap = cfg_.cluster_cap_w * (1.0 - cfg_.guard_fraction);
  const double relax_at = cfg_.cluster_cap_w * (1.0 - kRelaxMargin);
  if (mean_w > eff_cap) {
    ++over_streak_;
    under_streak_ = 0;
  } else if (mean_w < relax_at) {
    ++under_streak_;
    over_streak_ = 0;
  } else {
    over_streak_ = under_streak_ = 0;
  }
  const bool cooled = now_s - last_actuation_s_ >= kActuatorCooldownS;
  if (over_streak_ >= kActuatorPatienceEpochs && cooled) {
    for (auto& a : actuators_)
      if (a->restrict()) {
        ++stats_.restricts;
        record_ladder_move(
            now_s, "restrict:" + a->name(),
            format("epoch mean %.1f W > effective cap %.1f W for %d epochs",
                   mean_w, eff_cap, over_streak_),
            mean_w);
        over_streak_ = 0;
        break;
      }
  } else if (under_streak_ >= kActuatorPatienceEpochs && cooled) {
    for (auto it = actuators_.rbegin(); it != actuators_.rend(); ++it)
      if ((*it)->relax()) {
        ++stats_.relaxes;
        record_ladder_move(
            now_s, "relax:" + (*it)->name(),
            format("epoch mean %.1f W under %.1f W (relax margin) for %d "
                   "epochs",
                   mean_w, relax_at, under_streak_),
            mean_w);
        under_streak_ = 0;
        break;
      }
  }

  epoch_j_ = 0.0;
  epoch_t_ = 0.0;
  std::fill(node_epoch_j_.begin(), node_epoch_j_.end(), 0.0);
}

void CapCoordinator::set_node_weight(std::size_t i, double weight) {
  ANTAREX_REQUIRE(i < cluster_.node_count(),
                  "CapCoordinator: node weight index out of range");
  ANTAREX_REQUIRE(weight > 0.0, "CapCoordinator: node weight must be > 0");
  if (ext_weight_.size() < cluster_.node_count())
    ext_weight_.resize(cluster_.node_count(), 1.0);
  ext_weight_[i] = weight;
}

double CapCoordinator::node_weight(std::size_t i) const {
  return i < ext_weight_.size() ? ext_weight_[i] : 1.0;
}

void CapCoordinator::renegotiate() {
  const std::size_t n = cluster_.node_count();
  budgets_w_.assign(n, 0.0);
  const double eff_cap = cfg_.cluster_cap_w * (1.0 - cfg_.guard_fraction);

  // Node priority weight: the heaviest-priority job currently on the node
  // (at least 1, so only jobs above priority 1 need a device lookup).
  prio_.assign(n, 1.0);
  if (cfg_.use_priority) {
    const rtrm::ShardedDispatcher& disp = cluster_.dispatcher();
    for (const auto& job : disp.running_jobs()) {
      if (job.priority <= 1.0) continue;
      const u32 d = disp.device_of(job.id);
      if (d == kNoDevice) continue;
      double& p = prio_[cluster_.device_node(d)];
      p = std::max(p, job.priority);
    }
  }

  floor_w_.assign(n, 0.0);
  weight_.assign(n, 0.0);
  double floor_total = 0.0;
  double weight_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_.node_failed(i)) continue;  // dead: zero budget
    floor_w_[i] = cluster_.node_floor_w(i);
    const double mean =
        epoch_t_ > 0.0 ? node_epoch_j_[i] / epoch_t_ : floor_w_[i];
    const double demand = std::max(mean, floor_w_[i]);
    weight_[i] =
        std::pow(demand, cfg_.fairness_alpha) * prio_[i] * node_weight(i);
    floor_total += floor_w_[i];
    weight_total += weight_[i];
  }
  if (floor_total <= 0.0) return;  // every node down: nothing draws power

  if (eff_cap <= floor_total) {
    // Infeasible even at idle: scale the floors. Budgets still sum to the
    // effective cap (conservation), controllers pin everything to P-state 0.
    for (std::size_t i = 0; i < n; ++i)
      budgets_w_[i] = eff_cap * floor_w_[i] / floor_total;
    return;
  }
  const double distributable = eff_cap - floor_total;
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_.node_failed(i)) continue;
    const double share = weight_total > 0.0
                             ? weight_[i] / weight_total
                             : 1.0 / static_cast<double>(last_alive_);
    budgets_w_[i] = floor_w_[i] + distributable * share;
  }
}

std::string CapCoordinator::json() const {
  std::ostringstream os;
  os << "{\"schema\":\"antarex.govern.capreport/v2\"";
  os << ",\"cap_w\":" << cfg_.cluster_cap_w;
  os << ",\"epoch_s\":" << cfg_.epoch_s;
  os << ",\"guard_fraction\":" << cfg_.guard_fraction;
  os << ",\"epochs\":" << stats_.epochs;
  os << ",\"violations\":" << stats_.violations;
  os << ",\"worst_overshoot_w\":" << stats_.worst_overshoot_w;
  os << ",\"budget_j\":" << cfg_.cluster_cap_w * (cluster_.now_s() - attach_s_);
  os << ",\"consumed_j\":" << stats_.consumed_j;
  os << ",\"restricts\":" << stats_.restricts;
  os << ",\"relaxes\":" << stats_.relaxes;
  os << ",\"redistributions\":" << stats_.redistributions;
  os << ",\"node_budgets_w\":[";
  for (std::size_t i = 0; i < budgets_w_.size(); ++i)
    os << (i ? "," : "") << budgets_w_[i];
  os << "],\"actuators\":[";
  for (std::size_t i = 0; i < actuators_.size(); ++i) {
    const auto& a = *actuators_[i];
    os << (i ? "," : "") << "{\"name\":" << json_quote(a.name())
       << ",\"steps\":" << a.steps() << ",\"max_steps\":" << a.max_steps()
       << ",\"level\":" << a.level() << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace antarex::govern
