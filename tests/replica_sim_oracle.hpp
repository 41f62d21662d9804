// Test-only oracle for net::simulate_replica_group.
//
// The event-queue implementation the simulator shipped with before it
// became a direct sorted sweep over bitset group state: every event is a
// std::function closure in an EventQueue and every known-set is a
// vector<bool>. It is kept verbatim (minus the obs publishing) so the
// ReplicaSimOracle suite can compare every report field of the fast path
// against it on randomized inputs.
#pragma once

#include <span>

#include "net/replica_sim.hpp"

namespace dosn::net::oracle {

ReplicaSimReport simulate_replica_group(std::span<const DaySchedule> nodes,
                                        std::span<const UpdateSpec> updates,
                                        const ReplicaSimConfig& config);

}  // namespace dosn::net::oracle
