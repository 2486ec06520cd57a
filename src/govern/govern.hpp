// antarex::govern — closed-loop hierarchical power-cap governance.
//
// The layer that turns the stack's observables (antarex::obs) into actions
// on its knobs: DVFS step-down (rtrm), worker/grain throttling (exec),
// admission shrinking (nav). Two entry points:
//
//  - CapCoordinator (coordinator.hpp): a cluster joule/watt budget enforced
//    top-down on rtrm::ShardedCluster — per-node budgets renegotiated every
//    epoch from measured demand, per-device ceilings clamped every control
//    period, an actuator escalation ladder for when budgets are not enough.
//    Fault-aware: node crashes redistribute the budget to survivors. One
//    class at every scale; JobEnergyLedger (job_ledger.hpp) attributes the
//    joules per job where that is read.
//  - install_actuating_policies (policies.hpp): threshold-triggered knob
//    walking through the obs::PolicyEngine, for plants that need reflexes
//    rather than accounting.
//
// Both act through the same Actuator interface (actuator.hpp).
#pragma once

#include "govern/actuator.hpp"     // IWYU pragma: export
#include "govern/coordinator.hpp"  // IWYU pragma: export
#include "govern/job_ledger.hpp"   // IWYU pragma: export
#include "govern/policies.hpp"     // IWYU pragma: export
