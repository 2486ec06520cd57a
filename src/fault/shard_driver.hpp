// ShardFaultDriver is the former name of FaultInjector. The alias stays
// because perfbench/src/fleet.cpp includes this header and spells the driver
// this way.
#pragma once

#include "fault/injector.hpp"

namespace antarex::fault {

using ShardFaultDriver = FaultInjector;

}  // namespace antarex::fault
