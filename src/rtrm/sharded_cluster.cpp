#include "rtrm/sharded_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "power/thermal.hpp"
#include "support/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::rtrm {

namespace {
constexpr double kNoParkedTemp = std::numeric_limits<double>::lowest();
}

// ---------------------------------------------------------------------------
// ShardedDispatcher
// ---------------------------------------------------------------------------

void ShardedDispatcher::submit(Job job) {
  ANTAREX_REQUIRE(!job.profiles.empty(),
                  "Dispatcher: job with no device profiles");
  job.state = JobState::Queued;
  min_not_before_ = std::min(min_not_before_, job.not_before_s);
  queue_.push_back(std::move(job));
  TELEMETRY_COUNT("rtrm.jobs.submitted", 1);
}

u32 ShardedDispatcher::device_of(u64 job_id) const {
  const auto it = device_by_job_.find(job_id);
  return it == device_by_job_.end() ? kInvalidDevice : it->second;
}

u32 ShardedDispatcher::choose_device(const Job& job) const {
  const ShardedCluster& c = *c_;
  // Merge-iterate the compatible types' free sets in ascending global device
  // index, i.e. node order: the first-seen device wins every tie.
  struct Cursor {
    std::set<u32>::const_iterator it, end;
    const power::WorkloadModel* w;
  };
  std::array<Cursor, 3> cur;
  std::size_t n_cur = 0;
  for (const auto& [type, w] : job.profiles) {
    const auto& s = c.free_by_type_[static_cast<std::size_t>(type)];
    if (!s.empty()) cur[n_cur++] = {s.begin(), s.end(), &w};
  }
  u32 best = kInvalidDevice;
  double best_score = 0.0;
  while (true) {
    std::size_t pick = n_cur;
    for (std::size_t k = 0; k < n_cur; ++k) {
      if (cur[k].it == cur[k].end) continue;
      if (pick == n_cur || *cur[k].it < *cur[pick].it) pick = k;
    }
    if (pick == n_cur) break;
    const u32 d = *cur[pick].it;
    ++cur[pick].it;
    if (policy_ == PlacementPolicy::FirstFit) return d;
    const power::WorkloadModel& w = *cur[pick].w;
    double score = 0.0;
    if (policy_ == PlacementPolicy::FastestFirst) {
      score = w.execution_time_s(c.eff_op(d)) * c.dev_slowdown_[d] *
              job.units_remaining();
    } else {  // EnergyAware
      score = power::energy_j(c.specs_[c.dev_spec_[d]], c.dev_var_[d],
                              c.spec_vnom_[c.dev_spec_[d]], w, c.eff_op(d),
                              job.units_remaining(), c.dev_temp_[d]);
    }
    if (best == kInvalidDevice || score < best_score) {
      best = d;
      best_score = score;
    }
  }
  return best;
}

void ShardedDispatcher::start(Job job, u32 device, double now_s) {
  ShardedCluster& c = *c_;
  const u32 node = c.dev_node_[device];
  job.state = JobState::Running;
  job.start_time_s = now_s;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "n%u.d%u", node,
                device - c.node_dev_begin_[node]);
  job.device_name = buf;
  const auto type = c.specs_[c.dev_spec_[device]].type;
  // Resume from the last checkpoint: only the unfinished units are assigned.
  c.assign_device(device, job.profile(type), job.units_remaining(), job.id);
  c.free_erase(device);
  emit("dispatch", job.id, now_s);
  device_by_job_[job.id] = device;
  running_pos_[job.id] = running_.size();
  running_.push_back(std::move(job));
  TELEMETRY_COUNT("rtrm.jobs.dispatched", 1);
}

void ShardedDispatcher::erase_running(std::size_t pos) {
  running_pos_.erase(running_[pos].id);
  if (pos + 1 != running_.size()) {
    running_[pos] = std::move(running_.back());
    running_pos_[running_[pos].id] = pos;
  }
  running_.pop_back();
}

void ShardedDispatcher::place(double now_s) {
  TELEMETRY_SPAN("rtrm.dispatch");
  // Fast path: every queued job is still in crash backoff (min_not_before_
  // is a stale-low lower bound, so a positive answer here is always sound).
  if (!queue_.empty() && min_not_before_ > now_s) {
    TELEMETRY_GAUGE("rtrm.queue_depth", static_cast<double>(queue_.size()));
    return;
  }
  auto first_eligible = [&]() {
    return std::find_if(queue_.begin(), queue_.end(), [&](const Job& j) {
      return j.not_before_s <= now_s;
    });
  };
  while (true) {
    auto head_it = first_eligible();
    if (head_it == queue_.end()) {
      // No job is eligible: tighten the bound so the fast path holds until
      // the earliest backoff expires.
      double m = std::numeric_limits<double>::infinity();
      for (const Job& j : queue_) m = std::min(m, j.not_before_s);
      min_not_before_ = m;
      break;
    }
    Job& head = *head_it;
    const u32 d = choose_device(head);
    if (d != kInvalidDevice) {
      start(std::move(head), d, now_s);
      queue_.erase(head_it);
      continue;
    }
    if (!backfill_) break;  // plain FCFS: head blocks

    // EASY backfill: reserve for the head the busy compatible device with
    // the shortest predicted remaining time (all compatible devices on alive
    // nodes are busy here, or choose_device would have succeeded).
    const ShardedCluster& c = *c_;
    u32 reserved = kInvalidDevice;
    double reservation_s = 0.0;
    {
      struct Cursor {
        std::vector<u32>::const_iterator it, end;
      };
      std::array<Cursor, 3> cur;
      std::size_t n_cur = 0;
      for (const auto& [type, w] : head.profiles) {
        (void)w;
        const auto& v = c.devices_of_type_[static_cast<std::size_t>(type)];
        if (!v.empty()) cur[n_cur++] = {v.begin(), v.end()};
      }
      while (true) {
        std::size_t pick = n_cur;
        for (std::size_t k = 0; k < n_cur; ++k) {
          if (cur[k].it == cur[k].end) continue;
          if (pick == n_cur || *cur[k].it < *cur[pick].it) pick = k;
        }
        if (pick == n_cur) break;
        const u32 dev = *cur[pick].it;
        ++cur[pick].it;
        if (c.node_failed_[c.dev_node_[dev]]) continue;
        double rem = 0.0;
        if (c.dev_units_[dev] > 0.0)
          rem = c.dev_units_[dev] *
                c.dev_wl_[dev].execution_time_s(c.eff_op(dev)) *
                c.dev_slowdown_[dev];
        if (reserved == kInvalidDevice || rem < reservation_s) {
          reserved = dev;
          reservation_s = rem;
        }
      }
    }
    if (reserved == kInvalidDevice) break;  // no compatible device exists

    bool placed_any = false;
    for (auto it = std::next(head_it); it != queue_.end(); ++it) {
      if (it->not_before_s > now_s) continue;  // backoff: not eligible yet
      const u32 fit = choose_device(*it);
      if (fit == kInvalidDevice || fit == reserved) continue;
      start(std::move(*it), fit, now_s);
      queue_.erase(it);
      ++backfilled_;
      TELEMETRY_COUNT("rtrm.jobs.backfilled", 1);
      placed_any = true;
      break;  // re-evaluate from the head after each placement
    }
    if (!placed_any) break;
  }
  TELEMETRY_GAUGE("rtrm.queue_depth", static_cast<double>(queue_.size()));
}

void ShardedDispatcher::on_finished(u64 job_id, double now_s) {
  const auto it = running_pos_.find(job_id);
  ANTAREX_REQUIRE(it != running_pos_.end(),
                  "Dispatcher: completion for a job that is not running");
  const std::size_t pos = it->second;
  Job& job = running_[pos];
  job.state = JobState::Done;
  job.finish_time_s = now_s;
  job.units_done = job.units;
  TELEMETRY_COUNT("rtrm.jobs.completed", 1);
  emit("finish", job_id, now_s);
  device_by_job_.erase(job_id);
  done_.push_back(std::move(job));
  erase_running(pos);
}

void ShardedDispatcher::on_node_failed(
    const std::vector<std::pair<u64, double>>& interrupted, double now_s) {
  for (const auto& [job_id, units_unfinished] : interrupted) {
    const auto it = running_pos_.find(job_id);
    ANTAREX_REQUIRE(it != running_pos_.end(),
                    "Dispatcher: crash report for a job that is not running");
    const std::size_t pos = it->second;
    Job job = std::move(running_[pos]);
    erase_running(pos);
    device_by_job_.erase(job_id);

    // Roll progress back to the last durable checkpoint.
    const double assigned = job.units_remaining();
    const double progressed = std::max(0.0, assigned - units_unfinished);
    if (job.checkpoint_units > 0.0)
      job.units_done +=
          std::floor(progressed / job.checkpoint_units) * job.checkpoint_units;

    ++job.attempts;
    if (job.attempts > job.max_attempts) {
      job.state = JobState::Failed;
      job.finish_time_s = now_s;
      TELEMETRY_COUNT("rtrm.jobs.failed", 1);
      emit("fail", job_id, now_s);
      failed_.push_back(std::move(job));
      continue;
    }
    job.state = JobState::Queued;
    job.device_name.clear();
    job.not_before_s =
        now_s + backoff_base_s_ * std::ldexp(1.0, job.attempts - 1);
    min_not_before_ = std::min(min_not_before_, job.not_before_s);
    ++requeued_;
    TELEMETRY_COUNT("rtrm.jobs.requeued", 1);
    emit("requeue", job_id, now_s);
    queue_.push_back(std::move(job));
  }
}

// ---------------------------------------------------------------------------
// ShardedCluster: topology
// ---------------------------------------------------------------------------

ShardedCluster::ShardedCluster(ShardedClusterConfig config) : config_(config) {
  ANTAREX_REQUIRE(config_.base.control_period_s > 0.0,
                  "ShardedCluster: non-positive control period");
  ANTAREX_REQUIRE(config_.shards > 0, "ShardedCluster: zero shards");
  dispatcher_.c_ = this;
  dispatcher_.policy_ = config_.base.placement;
  dispatcher_.backfill_ = config_.base.backfill;
}

u32 ShardedCluster::add_spec(power::DeviceSpec spec) {
  ANTAREX_REQUIRE(!finalized_, "ShardedCluster: topology frozen after run");
  ANTAREX_REQUIRE(spec.dvfs.size() > 0, "ShardedCluster: spec has no P-states");
  spec_vnom_.push_back(spec.dvfs.highest().voltage_v);
  specs_.push_back(std::move(spec));
  return static_cast<u32>(specs_.size() - 1);
}

std::size_t ShardedCluster::add_node(
    double base_power_w,
    const std::vector<std::pair<u32, power::Variability>>& devices) {
  ANTAREX_REQUIRE(!finalized_, "ShardedCluster: topology frozen after run");
  ANTAREX_REQUIRE(base_power_w >= 0.0, "ShardedCluster: negative base power");
  const std::size_t node = node_count();
  node_base_w_.push_back(base_power_w);
  node_dev_begin_.push_back(static_cast<u32>(device_count()));
  node_dev_count_.push_back(static_cast<u32>(devices.size()));
  node_failed_.push_back(0);
  node_crashes_.push_back(0);
  node_downtime_s_.push_back(0.0);
  node_energy_j_.push_back(0.0);
  node_power_.push_back(0.0);
  node_budget_w_.push_back(1.0);
  node_parked_.push_back(0);
  node_quiet_.push_back(0);
  node_upto_.push_back(0);
  node_shard_.push_back(0);
  for (const auto& [sid, var] : devices) {
    ANTAREX_REQUIRE(sid < specs_.size(), "ShardedCluster: unknown spec id");
    const std::size_t num_ops = specs_[sid].dvfs.size();
    dev_spec_.push_back(sid);
    dev_var_.push_back(var);
    dev_node_.push_back(static_cast<u32>(node));
    dev_op_.push_back(static_cast<u32>(num_ops - 1));  // boot at the top
    dev_temp_.push_back(power::ThermalModel::kDefaultInitialC);
    dev_energy_j_.push_back(0.0);
    dev_offset_j_.push_back(0.0);
    dev_units_.push_back(0.0);
    dev_job_.push_back(0);
    dev_wl_.push_back(power::WorkloadModel{});
    dev_busy_s_.push_back(0.0);
    dev_done_.push_back(0);
    dev_interrupted_.push_back(0);
    dev_throttle_s_.push_back(0.0);
    dev_slowdown_.push_back(1.0);
    dev_guard_ceil_.push_back(static_cast<u32>(num_ops - 1));
    dev_pm_ceil_.push_back(static_cast<u32>(num_ops - 1));
    dev_power_.push_back(0.0);
    dev_parked_.push_back(0);
    dev_upto_.push_back(0);
  }
  return node;
}

void ShardedCluster::finalize() {
  if (finalized_) return;
  finalized_ = true;
  const std::size_t n = node_count();
  std::size_t s_count = std::min(config_.shards, std::max<std::size_t>(n, 1));
  if (s_count == 0) s_count = 1;
  config_.shards = s_count;
  shards_.resize(s_count);
  const std::size_t per = n == 0 ? 1 : (n + s_count - 1) / s_count;
  for (std::size_t s = 0; s < s_count; ++s) {
    Shard& sh = shards_[s];
    sh.begin_node = static_cast<u32>(std::min(n, s * per));
    sh.end_node = static_cast<u32>(std::min(n, (s + 1) * per));
    sh.parked_max_c = kNoParkedTemp;
    sh.step_max_c = kNoParkedTemp;
    sh.active.reserve(sh.end_node - sh.begin_node);
    for (u32 i = sh.begin_node; i < sh.end_node; ++i) {
      sh.active.push_back(i);
      node_shard_[i] = static_cast<u32>(s);
    }
  }
  for (u32 d = 0; d < device_count(); ++d) {
    const std::size_t t = static_cast<std::size_t>(specs_[dev_spec_[d]].type);
    devices_of_type_[t].push_back(d);
    free_by_type_[t].insert(free_by_type_[t].end(), d);
  }
}

std::pair<std::size_t, std::size_t> ShardedCluster::shard_node_range(
    std::size_t s) const {
  ANTAREX_REQUIRE(s < shards_.size(), "ShardedCluster: shard out of range");
  return {shards_[s].begin_node, shards_[s].end_node};
}

void ShardedCluster::free_insert(u32 d) {
  free_by_type_[static_cast<std::size_t>(specs_[dev_spec_[d]].type)].insert(d);
}

void ShardedCluster::free_erase(u32 d) {
  free_by_type_[static_cast<std::size_t>(specs_[dev_spec_[d]].type)].erase(d);
}

// ---------------------------------------------------------------------------
// Power evaluation (shared static helpers => one bit-exact expression each)
// ---------------------------------------------------------------------------

double ShardedCluster::fresh_device_power_w(u32 d) const {
  const power::DeviceSpec& spec = specs_[dev_spec_[d]];
  const double v_nom = spec_vnom_[dev_spec_[d]];
  const power::OperatingPoint& op = eff_op(d);
  const double temp = dev_temp_[d];
  if (!(dev_units_[d] > 0.0))
    return power::PowerModel::idle_power_w(spec, dev_var_[d], v_nom, op, temp);
  const power::WorkloadModel& w = dev_wl_[d];
  const double mem_frac = w.memory_boundedness(op);
  const double act =
      w.activity * (1.0 - mem_frac) + 0.25 * w.activity * mem_frac;
  return power::PowerModel::total_power_w(spec, dev_var_[d], v_nom, op, act,
                                          temp);
}

double ShardedCluster::fresh_node_power_w(std::size_t node) const {
  if (node_failed_[node]) return 0.0;
  double p = node_base_w_[node];
  const u32 begin = node_dev_begin_[node];
  const u32 end = begin + node_dev_count_[node];
  for (u32 d = begin; d < end; ++d) p += fresh_device_power_w(d);
  return p;
}

double ShardedCluster::node_floor_w(std::size_t node) const {
  double f = node_base_w_[node];
  const u32 begin = node_dev_begin_[node];
  const u32 end = begin + node_dev_count_[node];
  for (u32 d = begin; d < end; ++d) {
    const power::DeviceSpec& spec = specs_[dev_spec_[d]];
    f += power::PowerModel::idle_power_w(spec, dev_var_[d],
                                         spec_vnom_[dev_spec_[d]],
                                         spec.dvfs.lowest(), dev_temp_[d]);
  }
  return f;
}

// ---------------------------------------------------------------------------
// Parking / catch-up
// ---------------------------------------------------------------------------

void ShardedCluster::catch_up_device(u32 d) {
  u64 k = steps_done_ - dev_upto_[d];
  if (k == 0) return;
  dev_upto_[d] = steps_done_;
  // Offline parked devices accumulate exact zeros (rapl.accumulate(0, dt)).
  if (node_failed_[dev_node_[d]]) return;
  // One skipped idle step added (energy/dt)*dt with energy = idle_power*dt;
  // the parked temperature (and hence idle power) was constant, so the
  // addend is the same double every step — replay the additions verbatim.
  const double e = dev_power_[d] * sync_dt_;
  const double add = (e / sync_dt_) * sync_dt_;
  if (add == 0.0) return;
  for (; k > 0; --k) dev_energy_j_[d] += add;
}

void ShardedCluster::catch_up_node(std::size_t node) {
  u64 k = steps_done_ - node_upto_[node];
  if (k == 0) return;
  node_upto_[node] = steps_done_;
  if (node_failed_[node]) {
    for (; k > 0; --k) node_downtime_s_[node] += sync_dt_;
    return;  // node rapl.accumulate(0, dt): exact no-op
  }
  const double add = node_power_[node] * sync_dt_;
  if (add == 0.0) return;
  for (; k > 0; --k) node_energy_j_[node] += add;
}

void ShardedCluster::touch_device(u32 d) {
  const std::size_t node = dev_node_[d];
  catch_up_node(node);
  catch_up_device(d);
  node_quiet_[node] = 0;
  dev_parked_[d] = 0;
  if (node_parked_[node]) {
    node_parked_[node] = 0;
    Shard& sh = shards_[node_shard_[node]];
    const u32 ni = static_cast<u32>(node);
    sh.active.insert(std::lower_bound(sh.active.begin(), sh.active.end(), ni),
                     ni);
  }
}

void ShardedCluster::touch_node(std::size_t node) {
  const u32 begin = node_dev_begin_[node];
  const u32 end = begin + node_dev_count_[node];
  for (u32 d = begin; d < end; ++d) touch_device(d);
  catch_up_node(node);
  node_quiet_[node] = 0;
  if (node_parked_[node]) {
    node_parked_[node] = 0;
    Shard& sh = shards_[node_shard_[node]];
    const u32 ni = static_cast<u32>(node);
    sh.active.insert(std::lower_bound(sh.active.begin(), sh.active.end(), ni),
                     ni);
  }
}

void ShardedCluster::global_sync() {
  for (std::size_t i = 0; i < node_count(); ++i) catch_up_node(i);
  for (u32 d = 0; d < device_count(); ++d) catch_up_device(d);
}

void ShardedCluster::set_governor(GovernorPolicy g) {
  if (g == config_.base.governor) return;
  config_.base.governor = g;
  std::fill(node_quiet_.begin(), node_quiet_.end(), u8{0});
}

void ShardedCluster::set_op_step_down(std::size_t steps) {
  op_step_down_ = steps;
  std::fill(node_quiet_.begin(), node_quiet_.end(), u8{0});
}

// ---------------------------------------------------------------------------
// Mutations (serial, between plant steps)
// ---------------------------------------------------------------------------

void ShardedCluster::set_dev_op(u32 d, std::size_t op) {
  ANTAREX_REQUIRE(op < specs_[dev_spec_[d]].dvfs.size(),
                  "ShardedCluster: P-state index out of range");
  if (op == dev_op_[d]) return;
  touch_device(d);
  dev_op_[d] = static_cast<u32>(op);
  TELEMETRY_COUNT("rtrm.dvfs_transitions", 1);
}

void ShardedCluster::assign_device(u32 d, const power::WorkloadModel& w,
                                   double units, u64 job_id) {
  ANTAREX_REQUIRE(!(dev_units_[d] > 0.0), "Device: already executing a job");
  ANTAREX_REQUIRE(units > 0.0, "Device: job with no work");
  touch_device(d);
  dev_wl_[d] = w;
  dev_units_[d] = units;
  dev_job_[d] = job_id;
}

void ShardedCluster::fail_node(std::size_t node) {
  ANTAREX_REQUIRE(node < node_count(),
                  "ShardedCluster: node index out of range");
  if (node_failed_[node]) return;
  touch_node(node);
  std::vector<std::pair<u64, double>> interrupted;
  const u32 begin = node_dev_begin_[node];
  const u32 end = begin + node_dev_count_[node];
  for (u32 d = begin; d < end; ++d) {
    if (dev_units_[d] > 0.0) {
      interrupted.emplace_back(dev_job_[d], dev_units_[d]);
      dev_units_[d] = 0.0;
      ++dev_interrupted_[d];
      TELEMETRY_COUNT("rtrm.jobs.interrupted", 1);
    } else {
      free_erase(d);
    }
    dev_power_[d] = 0.0;
  }
  node_failed_[node] = 1;
  ++node_crashes_[node];
  ++down_count_;
  node_power_[node] = 0.0;
  it_dirty_ = true;
  dispatcher_.on_node_failed(interrupted, clock_.now());
  TELEMETRY_COUNT("rtrm.node_crashes", 1);
  TELEMETRY_GAUGE("rtrm.nodes_down", static_cast<double>(down_count_));
}

void ShardedCluster::repair_node(std::size_t node) {
  ANTAREX_REQUIRE(node < node_count(),
                  "ShardedCluster: node index out of range");
  if (!node_failed_[node]) return;
  touch_node(node);  // bank the remaining downtime while still failed
  node_failed_[node] = 0;
  --down_count_;
  const u32 begin = node_dev_begin_[node];
  const u32 end = begin + node_dev_count_[node];
  for (u32 d = begin; d < end; ++d) free_insert(d);
  TELEMETRY_COUNT("rtrm.node_repairs", 1);
  TELEMETRY_GAUGE("rtrm.nodes_down", static_cast<double>(down_count_));
}

void ShardedCluster::force_throttle(std::size_t node, std::size_t dev,
                                    double duration_s) {
  ANTAREX_REQUIRE(duration_s >= 0.0, "Device: negative throttle duration");
  const u32 d = dev_index(node, dev);
  touch_device(d);
  dev_throttle_s_[d] = std::max(dev_throttle_s_[d], duration_s);
  TELEMETRY_COUNT("rtrm.forced_throttles", 1);
}

void ShardedCluster::set_node_slowdown(std::size_t node, double factor) {
  ANTAREX_REQUIRE(node < node_count(),
                  "ShardedCluster: node index out of range");
  ANTAREX_REQUIRE(factor >= 1.0, "Device: slowdown factor must be >= 1");
  const u32 begin = node_dev_begin_[node];
  const u32 end = begin + node_dev_count_[node];
  for (u32 d = begin; d < end; ++d) {
    touch_device(d);
    dev_slowdown_[d] = factor;
  }
}

void ShardedCluster::set_reading_offset_j(std::size_t node, std::size_t dev,
                                          double joules) {
  // A glitch corrupts readings, never the plant — no wake-up needed.
  dev_offset_j_[dev_index(node, dev)] = joules;
}

// ---------------------------------------------------------------------------
// Control loops: governors, thermal guard, node and facility power control
// ---------------------------------------------------------------------------

void ShardedCluster::governor_step(u32 d, GovernorPolicy policy,
                                   double base_share) {
  const power::DeviceSpec& spec = specs_[dev_spec_[d]];
  const std::size_t top = spec.dvfs.size() - 1;
  const bool busy = dev_units_[d] > 0.0;
  switch (policy) {
    case GovernorPolicy::Performance:
      set_dev_op(d, top);
      break;
    case GovernorPolicy::Powersave:
      set_dev_op(d, 0);
      break;
    case GovernorPolicy::Ondemand:
      set_dev_op(d, busy ? top : 0);
      break;
    case GovernorPolicy::EnergyAware: {
      if (!busy) {
        set_dev_op(d, 0);
        return;
      }
      const power::WorkloadModel& w = dev_wl_[d];
      std::size_t best = top;
      double best_e = 0.0;
      for (std::size_t i = 0; i < spec.dvfs.size(); ++i) {
        const auto& op = spec.dvfs.at(i);
        const double e =
            power::energy_j(spec, dev_var_[d], spec_vnom_[dev_spec_[d]], w, op,
                            1.0, dev_temp_[d]) +
            base_share * w.execution_time_s(op);
        if (i == 0 || e <= best_e) {
          best_e = e;
          best = i;
        }
      }
      set_dev_op(d, best);
      break;
    }
  }
}

void ShardedCluster::guard_step(u32 d) {
  u32& ceil = dev_guard_ceil_[d];
  const double t = dev_temp_[d];
  const std::size_t num_ops = specs_[dev_spec_[d]].dvfs.size();
  if (t > config_.base.t_crit_c && ceil > 0) {
    --ceil;
    TELEMETRY_COUNT("rtrm.thermal_throttles", 1);
  } else if (t < config_.base.t_crit_c - 5.0 && ceil + 1 < num_ops) {
    ++ceil;
  }
  if (dev_op_[d] > ceil) set_dev_op(d, ceil);
}

void ShardedCluster::pm_clamp(std::size_t node) {
  const u32 begin = node_dev_begin_[node];
  const u32 end = begin + node_dev_count_[node];
  for (u32 d = begin; d < end; ++d)
    if (dev_op_[d] > dev_pm_ceil_[d]) set_dev_op(d, dev_pm_ceil_[d]);
}

bool ShardedCluster::node_controller_step(std::size_t node) {
  pm_clamp(node);
  const double p = fresh_node_power_w(node);
  const double budget = node_budget_w_[node];
  const u32 begin = node_dev_begin_[node];
  const u32 end = begin + node_dev_count_[node];
  bool changed = false;
  if (p > budget) {
    // Over budget: lower the ceiling of the hungriest device with room.
    u32 victim = ShardedDispatcher::kInvalidDevice;
    double worst = 0.0;
    for (u32 d = begin; d < end; ++d) {
      if (dev_pm_ceil_[d] == 0) continue;
      const double w = dev_weight_.empty() ? 1.0 : dev_weight_[d];
      const double dp = fresh_device_power_w(d) / w;
      if (dp > worst) {
        worst = dp;
        victim = d;
      }
    }
    if (victim != ShardedDispatcher::kInvalidDevice) {
      --dev_pm_ceil_[victim];
      changed = true;
    }
  } else {
    // Headroom: raise the cheapest constrained busy device, 5% guard band.
    u32 candidate = ShardedDispatcher::kInvalidDevice;
    double cheapest_raise = 0.0;
    for (u32 d = begin; d < end; ++d) {
      const power::DeviceSpec& spec = specs_[dev_spec_[d]];
      if (dev_pm_ceil_[d] + 1 >= spec.dvfs.size()) continue;
      if (!(dev_units_[d] > 0.0)) continue;
      const auto& next = spec.dvfs.at(dev_pm_ceil_[d] + 1);
      const power::WorkloadModel& w = dev_wl_[d];
      const double mem_frac = w.memory_boundedness(eff_op(d));
      const double act =
          w.activity * (1.0 - mem_frac) + 0.25 * w.activity * mem_frac;
      const double raised = power::PowerModel::total_power_w(
          spec, dev_var_[d], spec_vnom_[dev_spec_[d]], next, act, dev_temp_[d]);
      const double delta = raised - fresh_device_power_w(d);
      if (candidate == ShardedDispatcher::kInvalidDevice ||
          delta < cheapest_raise) {
        candidate = d;
        cheapest_raise = delta;
      }
    }
    if (candidate != ShardedDispatcher::kInvalidDevice &&
        p + cheapest_raise <= 0.95 * budget) {
      ++dev_pm_ceil_[candidate];
      changed = true;
    }
  }
  pm_clamp(node);
  return changed;
}

void ShardedCluster::power_manager_step() {
  const std::size_t n = node_count();
  if (n == 0) return;
  pm_floor_.resize(n);
  pm_demand_.resize(n);
  double floor_total = 0.0;
  double demand_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pm_floor_[i] = node_floor_w(i);
    pm_demand_[i] = std::max(fresh_node_power_w(i), pm_floor_[i]);
    floor_total += pm_floor_[i];
    demand_total += pm_demand_[i];
  }
  const double budget = *config_.base.facility_cap_w;
  const double distributable = std::max(0.0, budget - floor_total);
  for (std::size_t i = 0; i < n; ++i) {
    const double share = demand_total > 0.0
                             ? pm_demand_[i] / demand_total
                             : 1.0 / static_cast<double>(n);
    const double alloc = pm_floor_[i] + distributable * share;
    node_budget_w_[i] = std::max(alloc, 1.0);
    node_controller_step(i);
  }
}

void ShardedCluster::set_device_weight(u32 device, double weight) {
  ANTAREX_REQUIRE(device < device_count(),
                  "ShardedCluster: device index out of range");
  ANTAREX_REQUIRE(weight > 0.0, "ShardedCluster: non-positive device weight");
  if (dev_weight_.empty()) {
    if (weight == 1.0) return;
    dev_weight_.assign(device_count(), 1.0);
  }
  dev_weight_[device] = weight;
}

void ShardedCluster::apply_node_budget(std::size_t node, double budget_w) {
  ANTAREX_REQUIRE(node < node_count(),
                  "ShardedCluster: node index out of range");
  ANTAREX_REQUIRE(budget_w > 0.0, "ShardedCluster: non-positive node budget");
  node_budget_w_[node] = std::max(budget_w, 1.0);
  if (!node_controller_step(node)) return;
  // Keep notching down until the node fits or the ceilings bottom out.
  std::size_t notches = 0;
  const u32 begin = node_dev_begin_[node];
  const u32 end = begin + node_dev_count_[node];
  for (u32 d = begin; d < end; ++d) notches += specs_[dev_spec_[d]].dvfs.size();
  while (notches-- > 0 && fresh_node_power_w(node) > budget_w &&
         node_controller_step(node)) {
  }
}

void ShardedCluster::control_step() {
  TELEMETRY_SPAN("rtrm.control_step");
  const GovernorPolicy policy = config_.base.governor;
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (node_failed_[i]) continue;  // no governor/guard action on a dead node
    if (node_quiet_[i]) continue;   // provably identical to the last visit
    const u32 begin = node_dev_begin_[i];
    const u32 count = node_dev_count_[i];
    const double base_share =
        count > 0 ? node_base_w_[i] / static_cast<double>(count) : 0.0;
    bool mutated = false;
    for (u32 d = begin; d < begin + count; ++d) {
      const u32 op_before = dev_op_[d];
      const u32 ceil_before = dev_guard_ceil_[d];
      governor_step(d, policy, base_share);
      if (config_.base.thermal_guard) guard_step(d);
      mutated = mutated || dev_op_[d] != op_before ||
                dev_guard_ceil_[d] != ceil_before;
    }
    if (!mutated) {
      // Frozen inputs + no movement this visit => the next visit recomputes
      // the same decisions. Any touch/unpark clears the flag.
      bool all_parked = true;
      for (u32 d = begin; d < begin + count; ++d)
        if (!dev_parked_[d]) {
          all_parked = false;
          break;
        }
      if (all_parked) node_quiet_[i] = 1;
    }
  }
  if (config_.base.facility_cap_w) power_manager_step();
  if (op_step_down_ > 0) {
    for (std::size_t i = 0; i < node_count(); ++i) {
      if (node_failed_[i]) continue;
      const u32 begin = node_dev_begin_[i];
      const u32 end = begin + node_dev_count_[i];
      for (u32 d = begin; d < end; ++d) {
        const std::size_t num_ops = specs_[dev_spec_[d]].dvfs.size();
        const std::size_t ceiling =
            num_ops > op_step_down_ ? num_ops - 1 - op_step_down_ : 0;
        if (dev_op_[d] > ceiling) set_dev_op(d, ceiling);
      }
    }
  }
  // Last word: the govern layer's cap clamp overrides every proposal above.
  if (control_hook_) control_hook_(*this, clock_.now());
}

// ---------------------------------------------------------------------------
// The plant step
// ---------------------------------------------------------------------------

void ShardedCluster::step_shard(std::size_t s, double dt_s) {
  Shard& sh = shards_[s];
  sh.finished.clear();
  sh.power_changed = false;
  const double ambient = config_.base.ambient_c;
  double step_max = sh.parked_max_c;
  std::size_t w = 0;  // compact the active calendar in place
  for (std::size_t idx = 0; idx < sh.active.size(); ++idx) {
    const u32 i = sh.active[idx];
    const u32 begin = node_dev_begin_[i];
    const u32 count = node_dev_count_[i];
    bool all_parked = true;
    if (node_failed_[i]) {
      for (u32 d = begin; d < begin + count; ++d) {
        if (dev_parked_[d]) continue;
        // Powered off: throttle decay + cooling; the zero-power energy
        // accumulation adds exactly 0.0 and is skipped.
        const bool no_throttle = dev_throttle_s_[d] == 0.0;
        dev_throttle_s_[d] = std::max(0.0, dev_throttle_s_[d] - dt_s);
        const double t_before = dev_temp_[d];
        dev_temp_[d] =
            power::ThermalModel::stepped_c(t_before, 0.0, ambient, dt_s);
        ++sh.full_steps;
        dev_upto_[d] = steps_done_ + 1;
        step_max = std::max(step_max, dev_temp_[d]);
        if (no_throttle && dev_temp_[d] == t_before) {
          dev_parked_[d] = 1;
          sh.parked_max_c = std::max(sh.parked_max_c, dev_temp_[d]);
        } else {
          all_parked = false;
        }
      }
      // A failed node accumulates no energy (an exact no-op);
      // node_power_ went to 0 when the crash was applied.
      node_downtime_s_[i] += dt_s;
      node_upto_[i] = steps_done_ + 1;
    } else {
      for (u32 d = begin; d < begin + count; ++d) {
        if (dev_parked_[d]) continue;
        // --- device step: progress, energy, temperature ------------------
        const power::DeviceSpec& spec = specs_[dev_spec_[d]];
        const double v_nom = spec_vnom_[dev_spec_[d]];
        const bool no_throttle = dev_throttle_s_[d] == 0.0;
        const power::OperatingPoint& op = eff_op(d);
        double active_s = 0.0;
        if (dev_units_[d] > 0.0) {
          const double unit_time =
              dev_wl_[d].execution_time_s(op) * dev_slowdown_[d];
          const double progress = dt_s / unit_time;
          if (progress >= dev_units_[d]) {
            active_s = dev_units_[d] * unit_time;
            dev_units_[d] = 0.0;
            ++dev_done_[d];
            sh.finished.emplace_back(d, dev_job_[d]);
          } else {
            dev_units_[d] -= progress;
            active_s = dt_s;
          }
        }
        dev_busy_s_[d] += active_s;
        const double temp = dev_temp_[d];
        double energy = 0.0;
        if (active_s > 0.0) {
          const power::WorkloadModel& wl = dev_wl_[d];
          const double mem_frac = wl.memory_boundedness(op);
          const double act =
              wl.activity * (1.0 - mem_frac) + 0.25 * wl.activity * mem_frac;
          energy += power::PowerModel::total_power_w(spec, dev_var_[d], v_nom,
                                                     op, act, temp) *
                    active_s;
        }
        const double idle_s = dt_s - active_s;
        if (idle_s > 0.0)
          energy += power::PowerModel::idle_power_w(spec, dev_var_[d], v_nom,
                                                    op, temp) *
                    idle_s;
        const double pw = energy / dt_s;
        dev_energy_j_[d] += pw * dt_s;  // RaplDomain::accumulate rounding
        dev_temp_[d] = power::ThermalModel::stepped_c(temp, pw, ambient, dt_s);
        dev_throttle_s_[d] = std::max(0.0, dev_throttle_s_[d] - dt_s);
        ++sh.full_steps;
        dev_upto_[d] = steps_done_ + 1;
        dev_power_[d] = fresh_device_power_w(d);  // post-step cache
        step_max = std::max(step_max, dev_temp_[d]);
        // Park: idle, no throttle at either end of the step, and the
        // temperature landed on its discrete fixed point — one more step
        // would reproduce this state bit-for-bit.
        if (no_throttle && dev_throttle_s_[d] == 0.0 &&
            !(dev_units_[d] > 0.0) && dev_temp_[d] == temp) {
          dev_parked_[d] = 1;
          sh.parked_max_c = std::max(sh.parked_max_c, dev_temp_[d]);
        } else {
          all_parked = false;
        }
      }
      // Node power (base + devices) after the device steps, then the
      // node's energy accumulation.
      double np = node_base_w_[i];
      for (u32 d = begin; d < begin + count; ++d) np += dev_power_[d];
      if (np != node_power_[i]) {
        node_power_[i] = np;
        sh.power_changed = true;
      }
      node_energy_j_[i] += np * dt_s;
      node_upto_[i] = steps_done_ + 1;
    }
    if (all_parked && count > 0) {
      node_parked_[i] = 1;  // drops off the calendar until touched
    } else {
      sh.active[w++] = i;
    }
  }
  sh.active.resize(w);
  sh.step_max_c = step_max;
}

void ShardedCluster::run_for(double duration_s, double dt_s) {
  ANTAREX_REQUIRE(duration_s >= 0.0 && dt_s > 0.0,
                  "ShardedCluster: bad run parameters");
  finalize();
  const double end = clock_.now() + duration_s;
  while (clock_.now() < end - 1e-12) {
    const double step = std::min(dt_s, end - clock_.now());
    // All skipped steps between global syncs share one dt; when the step
    // size changes (tail of a run), settle everything first.
    if (step != sync_dt_) {
      global_sync();
      sync_dt_ = step;
    }

    dispatcher_.place(clock_.now());
    if (clock_.now() + 1e-12 >= next_control_s_) {
      control_step();
      next_control_s_ = clock_.now() + config_.base.control_period_s;
    }

    // Shards own disjoint node ranges: they step in parallel and merge
    // serially in fixed shard order, so the run is byte-identical for any
    // worker count.
    const auto body = [&](std::size_t b, std::size_t e) {
      for (std::size_t s = b; s < e; ++s) step_shard(s, step);
    };
    if (pool_ && shards_.size() > 1) {
      pool_->parallel_for(shards_.size(), 1, body);
    } else {
      body(0, shards_.size());
    }

    const double t_done = clock_.now() + step;
    bool dirty = it_dirty_;
    for (Shard& sh : shards_) {
      for (const auto& [d, job] : sh.finished) {
        free_insert(d);
        dispatcher_.on_finished(job, t_done);
      }
      dirty = dirty || sh.power_changed;
    }
    if (dirty) {
      // One chain sum in node order, as in a per-node reduction. When
      // nothing changed the previous sum is bit-identical by definition.
      double p = 0.0;
      for (const double np : node_power_) p += np;
      it_power_ = p;
      it_dirty_ = false;
    }
    ++steps_done_;
    clock_.advance(step);

    TELEMETRY_GAUGE("rtrm.it_power_w", it_power_);
    TELEMETRY_GAUGE("rtrm.power_draw_w", it_power_);
    telemetry_.time_s = clock_.now();
    telemetry_.it_energy_j += it_power_ * step;
    telemetry_.facility_energy_j +=
        it_power_ * step * cooling_.pue(it_power_, config_.base.ambient_c);
    telemetry_.peak_it_power_w =
        std::max(telemetry_.peak_it_power_w, it_power_);
    double step_max_c = config_.base.ambient_c;
    for (const Shard& sh : shards_)
      step_max_c =
          std::max(step_max_c, std::max(sh.step_max_c, sh.parked_max_c));
    telemetry_.max_temperature_c =
        std::max(telemetry_.max_temperature_c, step_max_c);
    TELEMETRY_GAUGE("rtrm.max_temp_c", telemetry_.max_temperature_c);
    TELEMETRY_GAUGE("rtrm.thermal_headroom_c",
                    config_.base.t_crit_c - step_max_c);
    telemetry_.jobs_completed = dispatcher_.completed();
    telemetry_.jobs_failed = dispatcher_.failed();
    for (auto& obs : step_observers_) obs(clock_.now(), it_power_, step);
  }
}

bool ShardedCluster::run_until_idle(double max_s, double dt_s) {
  const double deadline = clock_.now() + max_s;
  while (clock_.now() < deadline) {
    run_for(std::min(16.0 * dt_s, deadline - clock_.now()), dt_s);
    const bool any_busy = dispatcher_.queued() > 0 || dispatcher_.running() > 0;
    if (!any_busy) return true;
  }
  return dispatcher_.queued() == 0 && dispatcher_.running() == 0;
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

double ShardedCluster::node_downtime_s(std::size_t node) {
  ANTAREX_REQUIRE(node < node_count(),
                  "ShardedCluster: node index out of range");
  catch_up_node(node);
  return node_downtime_s_[node];
}

double ShardedCluster::node_energy_j(std::size_t node) {
  ANTAREX_REQUIRE(node < node_count(),
                  "ShardedCluster: node index out of range");
  catch_up_node(node);
  return node_energy_j_[node];
}

double ShardedCluster::device_energy_j(std::size_t node, std::size_t dev) {
  const u32 d = dev_index(node, dev);
  catch_up_device(d);
  return dev_energy_j_[d];
}

u64 ShardedCluster::full_device_steps() const {
  u64 total = 0;
  for (const Shard& sh : shards_) total += sh.full_steps;
  return total;
}

std::size_t ShardedCluster::approx_state_bytes() const {
  auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  std::size_t bytes = 0;
  bytes += vec(dev_spec_) + vec(dev_var_) + vec(dev_node_) + vec(dev_op_) +
           vec(dev_temp_) + vec(dev_energy_j_) + vec(dev_offset_j_) +
           vec(dev_units_) + vec(dev_job_) + vec(dev_wl_) + vec(dev_busy_s_) +
           vec(dev_done_) + vec(dev_interrupted_) + vec(dev_throttle_s_) +
           vec(dev_slowdown_) + vec(dev_guard_ceil_) + vec(dev_pm_ceil_) +
           vec(dev_weight_) + vec(dev_power_) + vec(dev_parked_) +
           vec(dev_upto_);
  bytes += vec(node_base_w_) + vec(node_dev_begin_) + vec(node_dev_count_) +
           vec(node_failed_) + vec(node_crashes_) + vec(node_downtime_s_) +
           vec(node_energy_j_) + vec(node_power_) + vec(node_budget_w_) +
           vec(node_parked_) + vec(node_quiet_) + vec(node_upto_) +
           vec(node_shard_) + vec(pm_floor_) + vec(pm_demand_);
  for (const Shard& sh : shards_)
    bytes += sizeof(Shard) + vec(sh.active) + vec(sh.finished);
  for (const auto& v : devices_of_type_) bytes += vec(v);
  // Red-black tree node overhead for the free sets (~3 pointers + color).
  for (const auto& s : free_by_type_)
    bytes += s.size() * (sizeof(u32) + 4 * sizeof(void*));
  for (std::size_t i = 0; i < specs_.size(); ++i)
    bytes += sizeof(power::DeviceSpec) +
             specs_[i].dvfs.size() * sizeof(power::OperatingPoint);
  return bytes;
}

// ---------------------------------------------------------------------------
// ClusterBlueprint
// ---------------------------------------------------------------------------

void ClusterBlueprint::build(ShardedCluster& cluster) const {
  std::vector<u32> ids;
  ids.reserve(specs.size());
  for (const auto& s : specs) ids.push_back(cluster.add_spec(s));
  for (const auto& nd : nodes) {
    std::vector<std::pair<u32, power::Variability>> devs;
    devs.reserve(nd.devices.size());
    for (const auto& [sid, var] : nd.devices) devs.emplace_back(ids[sid], var);
    cluster.add_node(nd.base_power_w, devs);
  }
}

ClusterBlueprint ClusterBlueprint::exascale(u64 seed, std::size_t node_count,
                                            double sigma) {
  ClusterBlueprint bp;
  bp.specs = {power::DeviceSpec::xeon_haswell(), power::DeviceSpec::xeon_phi(),
              power::DeviceSpec::gpgpu()};
  bp.nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    // One independent stream per node: the blueprint is identical for any
    // shard count, thread count, or construction order.
    Rng rng(exec::stream_seed(seed, i));
    const double r = rng.uniform();
    NodeDef nd;
    nd.base_power_w = rng.uniform(55.0, 95.0);
    auto dev = [&](u32 sid) {
      nd.devices.emplace_back(sid, power::Variability::sample(rng, sigma));
    };
    if (r < 0.55) {  // thin node: dual Xeon
      dev(0);
      dev(0);
    } else if (r < 0.80) {  // MIC node: host + 2x Xeon Phi
      dev(0);
      dev(1);
      dev(1);
    } else {  // GPU node: host + 2x GPGPU
      dev(0);
      dev(2);
      dev(2);
    }
    bp.nodes.push_back(std::move(nd));
  }
  return bp;
}

}  // namespace antarex::rtrm
