// antarex::fault — umbrella header.
//
// Deterministic fault injection for the simulated plant: seeded schedules of
// node crashes (Weibull MTBF), transient RAPL sensor glitches, forced thermal
// throttles, and slow-node degradation, injected into an rtrm::ShardedCluster
// by the FaultInjector through the plant's step-observer hook. Replays are
// bit-identical from the (seed, schedule) pair — see
// FaultInjector::replay_trace().
#pragma once

#include "fault/injector.hpp"
#include "fault/schedule.hpp"
