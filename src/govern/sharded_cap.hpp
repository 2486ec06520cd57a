// Former names of the one cap coordinator (coordinator.hpp), which drives
// rtrm::ShardedCluster directly.
#pragma once

#include "govern/coordinator.hpp"

namespace antarex::govern {

using ShardedCapCoordinator = CapCoordinator;
using ShardedCapConfig = CapCoordinatorConfig;
using ShardedCapStats = CapStats;

}  // namespace antarex::govern
