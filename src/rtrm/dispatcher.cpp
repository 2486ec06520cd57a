#include "rtrm/dispatcher.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace antarex::rtrm {

namespace {
constexpr double kBackoffBaseS = 2.0;
}

void Dispatcher::submit(Job job) {
  ANTAREX_REQUIRE(!job.profiles.empty(), "Dispatcher: job with no device profiles");
  job.state = JobState::Queued;
  queue_.push_back(std::move(job));
  TELEMETRY_COUNT("rtrm.jobs.submitted", 1);
}

void Dispatcher::place(std::vector<Node>& nodes, double now_s) {
  TELEMETRY_SPAN("rtrm.dispatch");
  while (true) {
    // FCFS over the *eligible* queue: jobs still in crash backoff are skipped
    // without blocking the jobs behind them.
    const auto head = std::find_if(queue_.begin(), queue_.end(), [&](const Job& j) {
      return j.not_before_s <= now_s;
    });
    if (head == queue_.end()) break;
    Device* free = nullptr;
    for (auto& node : nodes) {
      if (node.failed()) continue;  // a downed node accepts no work
      for (auto& d : node.devices())
        if (!d.busy() && head->can_run_on(d.spec().type)) {
          free = &d;
          break;
        }
      if (free) break;
    }
    if (!free) break;  // the head blocks

    Job job = std::move(*head);
    queue_.erase(head);
    job.state = JobState::Running;
    job.start_time_s = now_s;
    job.device_name = free->name();
    // Resume from the last checkpoint: only the unfinished units are assigned.
    free->assign(job.profile(free->spec().type), job.units_remaining(), job.id);
    emit("dispatch", job.id, now_s);
    running_.push_back(std::move(job));
    TELEMETRY_COUNT("rtrm.jobs.dispatched", 1);
  }
  TELEMETRY_GAUGE("rtrm.queue_depth", static_cast<double>(queue_.size()));
}

void Dispatcher::on_finished(u64 job_id, double now_s) {
  const auto it = std::find_if(running_.begin(), running_.end(),
                               [&](const Job& j) { return j.id == job_id; });
  ANTAREX_REQUIRE(it != running_.end(),
                  "Dispatcher: completion for a job that is not running");
  it->state = JobState::Done;
  it->finish_time_s = now_s;
  it->units_done = it->units;
  TELEMETRY_COUNT("rtrm.jobs.completed", 1);
  emit("finish", job_id, now_s);
  done_.push_back(std::move(*it));
  running_.erase(it);
}

void Dispatcher::on_node_failed(
    const std::vector<std::pair<u64, double>>& interrupted, double now_s) {
  for (const auto& [job_id, units_unfinished] : interrupted) {
    const auto it = std::find_if(running_.begin(), running_.end(),
                                 [&](const Job& j) { return j.id == job_id; });
    ANTAREX_REQUIRE(it != running_.end(),
                    "Dispatcher: crash report for a job that is not running");
    Job job = std::move(*it);
    running_.erase(it);

    // Roll progress back to the last durable checkpoint. The device reports
    // units still unfinished for *this* assignment; anything beyond the
    // checkpoint granularity is lost.
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
    job.not_before_s = now_s + kBackoffBaseS * std::ldexp(1.0, job.attempts - 1);
    ++requeued_;
    TELEMETRY_COUNT("rtrm.jobs.requeued", 1);
    emit("requeue", job_id, now_s);
    queue_.push_back(std::move(job));
  }
}

}  // namespace antarex::rtrm
