// Per-job energy ledger over the SoA plant (rtrm::ShardedCluster).
//
// A step observer: after every plant step each running job is charged its
// device's committed power times dt, keyed by job name (the
// obs::AttributionTable idiom). Node base power stays unattributed — it is
// not any job's doing — so the ledger is a subset of the plant's IT energy.
// Job-to-device lookups go through ShardedDispatcher::device_of, O(jobs) per
// step. The table grows one row per job ever run, so attach a ledger only
// where its figures are read.
#pragma once

#include "obs/attribution.hpp"
#include "rtrm/sharded_cluster.hpp"

namespace antarex::govern {

class JobEnergyLedger {
 public:
  /// Starts charging from the next plant step. Observers are not removable:
  /// the ledger must outlive the cluster's run calls.
  explicit JobEnergyLedger(rtrm::ShardedCluster& cluster) {
    cluster.add_step_observer([this, &cluster](double, double, double dt_s) {
      const rtrm::ShardedDispatcher& disp = cluster.dispatcher();
      for (const rtrm::Job& job : disp.running_jobs()) {
        const u32 d = disp.device_of(job.id);
        if (d == rtrm::ShardedDispatcher::kInvalidDevice) continue;
        table_.add(job.name, cluster.device_power_w(d) * dt_s, dt_s);
      }
    });
  }
  JobEnergyLedger(const JobEnergyLedger&) = delete;
  JobEnergyLedger& operator=(const JobEnergyLedger&) = delete;

  const obs::AttributionTable& table() const { return table_; }

 private:
  obs::AttributionTable table_;
};

}  // namespace antarex::govern
