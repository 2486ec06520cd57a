// ShardFaultDriver names FaultInjector's rtrm::ShardedCluster instantiation.
// The alias stays because perfbench/src/fleet.cpp includes this header and
// spells the driver this way.
#pragma once

#include "fault/injector.hpp"

namespace antarex::fault {

using ShardFaultDriver = FaultInjector<rtrm::ShardedCluster>;

}  // namespace antarex::fault
