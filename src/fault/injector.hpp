// antarex::fault — the fault injector.
//
// A FaultInjector binds a FaultSchedule to the live plant, an
// rtrm::ShardedCluster: it attaches itself as a step observer
// (add_step_observer) and, after every simulation step, applies all
// scheduled events whose timestamp has been reached through the plant's
// fault mutators. Events carry virtual timestamps, injection is driven
// purely by the schedule and the plant's logical clock, and the dispatcher's
// lifecycle hook is folded into the same log — so a (seed, schedule) pair
// replays bit-identically, including across exec thread counts and shard
// counts (see replay_trace()); the plant oracles in
// tests/test_sharded_cluster.cpp pin the log.
//
// Every injection and recovery is also emitted as telemetry (fault.* counters
// and the fault.inject span), so obs attribution and the HTML report can show
// time-under-fault alongside energy.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "rtrm/sharded_cluster.hpp"

namespace antarex::fault {

struct InjectorStats {
  u64 crashes = 0;
  u64 repairs = 0;
  u64 glitches = 0;
  u64 throttles = 0;
  u64 slowdowns = 0;
  double time_under_fault_s = 0.0;  ///< integral of (any node down) over time
  double node_downtime_s = 0.0;     ///< integral of (#nodes down) * dt
};

class FaultInjector {
 public:
  /// Attaches to the plant as an additional step observer. The injector
  /// must outlive the plant's run calls (or the plant must detach all
  /// observers first).
  FaultInjector(rtrm::ShardedCluster& cluster, FaultSchedule schedule);

  const InjectorStats& stats() const { return stats_; }
  const FaultSchedule& schedule() const { return schedule_; }
  /// Events applied so far (monotone virtual timestamps).
  std::size_t applied() const { return cursor_; }

  /// The injector's replay log: one line per applied fault event and per
  /// dispatcher lifecycle event (dispatch/finish/requeue/fail), in virtual
  /// time order.
  const std::vector<std::string>& log() const { return log_; }

  /// Canonical trace of a completed faulted run: the replay log, the
  /// rtrm./fault./power. counters of the global telemetry registry (sorted by
  /// name; exec.* counters are excluded — they legitimately vary with thread
  /// count), and the plant's final scalars, all at full precision. Two runs
  /// are replays of each other iff these strings are byte-identical.
  std::string replay_trace() const;

 private:
  void on_step(double now_s, double it_power_w, double dt_s);
  void apply(const FaultEvent& e);

  rtrm::ShardedCluster& cluster_;
  FaultSchedule schedule_;
  std::size_t cursor_ = 0;
  InjectorStats stats_;
  std::vector<std::string> log_;
};

}  // namespace antarex::fault
