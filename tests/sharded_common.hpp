// Shared fixtures for the plant oracle and property suites: seed-
// deterministic job mixes, fault environments, and the canonical state trace.
// The trace reads every per-node and per-device observable of a run at full
// precision — two runs simulate the same plant iff their traces are
// byte-identical.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

#include "fault/schedule.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/rng.hpp"

namespace antarex::rtrm {

/// Seed-deterministic heterogeneous job mix: every job can run on a CPU;
/// about half also profile a GPU and a third a MIC, with different costs —
/// exercising the dispatcher's multi-type placement.
inline void submit_job_mix(ShardedCluster& cluster, u64 seed,
                           std::size_t n_jobs) {
  Rng rng(seed ^ 0x0b5eed5ULL);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    Job job;
    job.id = j + 1;
    job.name = "job" + std::to_string(job.id);
    job.units = 1.0 + 3.0 * rng.uniform();
    job.checkpoint_units = rng.bernoulli(0.5) ? 0.5 : 0.0;
    job.max_attempts = 1 + static_cast<int>(rng.index(4));
    power::WorkloadModel cpu;
    cpu.cpu_gcycles = 20.0 + 60.0 * rng.uniform();
    cpu.mem_seconds = rng.bernoulli(0.5) ? 0.4 * rng.uniform() : 0.0;
    cpu.cores_used = 12;
    cpu.activity = 0.9;
    job.profiles[power::DeviceType::Cpu] = cpu;
    if (rng.bernoulli(0.5)) {
      power::WorkloadModel gpu;
      gpu.cpu_gcycles = 6.0 + 18.0 * rng.uniform();
      gpu.mem_seconds = 0.2 * rng.uniform();
      gpu.cores_used = 40;
      gpu.activity = 0.8;
      job.profiles[power::DeviceType::Gpu] = gpu;
    }
    if (rng.bernoulli(0.34)) {
      power::WorkloadModel mic;
      mic.cpu_gcycles = 10.0 + 30.0 * rng.uniform();
      mic.mem_seconds = 0.3 * rng.uniform();
      mic.cores_used = 60;
      mic.activity = 0.85;
      job.profiles[power::DeviceType::Mic] = mic;
    }
    cluster.submit(std::move(job));
  }
}

/// Fault environment for the blueprint plants: every node has >= 2 devices
/// in ClusterBlueprint::exascale, so device-targeted events stay in range.
inline fault::FaultSchedule make_fault_schedule(std::size_t nodes,
                                                double horizon_s, u64 seed) {
  fault::FaultModel model;
  model.crash_mtbf_s = 40.0;
  model.crash_weibull_shape = 1.2;
  model.repair_mean_s = 6.0;
  model.glitch_rate_hz = 0.03;
  model.glitch_magnitude_j = 100.0;
  model.glitch_duration_s = 1.5;
  model.throttle_rate_hz = 0.02;
  model.throttle_duration_s = 4.0;
  model.slowdown_rate_hz = 0.01;
  model.slowdown_factor = 2.0;
  model.slowdown_duration_s = 10.0;
  return fault::generate_schedule(model, nodes, 2, horizon_s, seed);
}

namespace trace_detail {

inline void line(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

inline void job_lines(std::string& out, const std::vector<Job>& jobs,
                      const char* tag) {
  for (const Job& j : jobs)
    line(out, "%s %llu units_done=%.17g t0=%.17g t1=%.17g attempts=%d dev=%s\n",
         tag, static_cast<unsigned long long>(j.id), j.units_done,
         j.start_time_s, j.finish_time_s, j.attempts, j.device_name.c_str());
}

}  // namespace trace_detail

/// Canonical state trace of a plant run.
inline std::string state_trace(ShardedCluster& c) {
  using trace_detail::line;
  std::string out;
  for (std::size_t i = 0; i < c.node_count(); ++i) {
    line(out, "node %zu failed=%d crashes=%llu down=%.17g e=%.17g p=%.17g\n",
         i, c.node_failed(i) ? 1 : 0,
         static_cast<unsigned long long>(c.node_crashes(i)),
         c.node_downtime_s(i), c.node_energy_j(i), c.node_power_w(i));
    for (std::size_t d = 0; d < c.node_device_count(i); ++d) {
      line(out,
           "  dev %zu op=%zu busy=%d thr=%d slow=%.17g temp=%.17g e=%.17g "
           "uj=%u busy_s=%.17g done=%llu intr=%llu\n",
           d, c.device_op_index(i, d), c.device_busy(i, d) ? 1 : 0,
           c.device_throttled(i, d) ? 1 : 0, c.device_slowdown(i, d),
           c.device_temperature_c(i, d), c.device_energy_j(i, d),
           c.device_counter_uj(i, d), c.device_busy_seconds(i, d),
           static_cast<unsigned long long>(c.device_completed_jobs(i, d)),
           static_cast<unsigned long long>(c.device_interrupted_jobs(i, d)));
    }
  }
  const ClusterTelemetry& t = c.telemetry();
  line(out,
       "final t=%.17g it_e=%.17g fac_e=%.17g peak=%.17g maxt=%.17g "
       "done=%llu fail=%llu\n",
       t.time_s, t.it_energy_j, t.facility_energy_j, t.peak_it_power_w,
       t.max_temperature_c, static_cast<unsigned long long>(t.jobs_completed),
       static_cast<unsigned long long>(t.jobs_failed));
  const ShardedDispatcher& disp = c.dispatcher();
  line(out, "disp q=%zu run=%zu done=%zu fail=%zu requeue=%llu backfill=%llu\n",
       disp.queued(), disp.running(), disp.completed(), disp.failed(),
       static_cast<unsigned long long>(disp.requeued_jobs()),
       static_cast<unsigned long long>(disp.backfilled_jobs()));
  trace_detail::job_lines(out, disp.completed_jobs(), "jobC");
  trace_detail::job_lines(out, disp.failed_jobs(), "jobF");
  return out;
}

}  // namespace antarex::rtrm
