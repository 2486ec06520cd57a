// antarex::govern — closed-loop hierarchical power-cap governance.
//
// The layer that turns the stack's observables (antarex::obs) into actions
// on its knobs: DVFS step-down (rtrm), admission shrinking (nav). One loop:
//
//  - CapCoordinator (coordinator.hpp): a cluster joule/watt budget enforced
//    top-down on rtrm::ShardedCluster — per-node budgets renegotiated every
//    epoch from measured demand, per-device ceilings clamped every control
//    period, an actuator escalation ladder for when budgets are not enough.
//    Fault-aware: node crashes redistribute the budget to survivors. One
//    class at every scale; JobEnergyLedger (job_ledger.hpp) attributes the
//    joules per job where that is read.
//
// The ladder's rungs implement the Actuator interface (actuator.hpp); an
// obs::PolicyEngine actuating policy may walk the same knobs outside the
// cap loop (UC2's SLO admission guard drives NavActuator that way).
#pragma once

#include "govern/actuator.hpp"     // IWYU pragma: export
#include "govern/coordinator.hpp"  // IWYU pragma: export
#include "govern/job_ledger.hpp"   // IWYU pragma: export
