// Job dispatcher of the legacy object-model plant: first-fit FCFS placement
// of queued jobs onto free devices, without backfilling.
//
// Resilience (antarex::fault): jobs interrupted by node crashes are restored
// from their last checkpoint and requeued with per-attempt exponential
// backoff; a job that keeps dying is reported Failed after max_attempts, so
// every submitted job ends in exactly one of {Done, Failed}.
#pragma once

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "rtrm/job.hpp"
#include "rtrm/node.hpp"

namespace antarex::rtrm {

class Dispatcher {
 public:
  void submit(Job job);
  std::size_t queued() const { return queue_.size(); }
  std::size_t running() const { return running_.size(); }
  std::size_t completed() const { return done_.size(); }
  const std::vector<Job>& completed_jobs() const { return done_; }
  std::size_t failed() const { return failed_.size(); }
  const std::vector<Job>& failed_jobs() const { return failed_; }
  u64 requeued_jobs() const { return requeued_; }

  /// Place queued jobs on the first free compatible device, in queue order;
  /// a job that cannot be placed blocks later ones (FCFS). Jobs in crash
  /// backoff (not_before_s > now) neither place nor block others.
  void place(std::vector<Node>& nodes, double now_s);

  /// Notify that a job finished on some device (called by the cluster when a
  /// Device::step reports completion).
  void on_finished(u64 job_id, double now_s);

  /// Handle a node crash: each (job id, units unfinished) pair from
  /// Node::fail() is rolled back to its last checkpoint and requeued with
  /// exponential backoff (base 2 s), or marked Failed past its retry budget.
  void on_node_failed(const std::vector<std::pair<u64, double>>& interrupted,
                      double now_s);

  /// Lifecycle event hook for replay logging (antarex::fault): invoked as
  /// fn(kind, job_id, t) with kind in {"dispatch", "finish", "requeue",
  /// "fail"}. All events fire on the simulation thread in virtual-time order.
  using EventHook = std::function<void(const char* kind, u64 job_id, double t)>;
  void set_event_hook(EventHook fn) { event_hook_ = std::move(fn); }

 private:
  void emit(const char* kind, u64 job_id, double t) const {
    if (event_hook_) event_hook_(kind, job_id, t);
  }

  u64 requeued_ = 0;
  std::deque<Job> queue_;
  std::vector<Job> running_;
  std::vector<Job> done_;
  std::vector<Job> failed_;
  EventHook event_hook_;
};

}  // namespace antarex::rtrm
