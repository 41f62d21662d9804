// Reference implementations of the delay layer as it was first written.
//
// pair_delay materializes the rendezvous with the allocating
// DaySchedule::intersect, then probes every candidate event time with
// worst_case_wait. group_delay is the batch Floyd–Warshall over those
// edges, and metrics::oracle::update_propagation_delay is group_delay over
// the owner and the replicas plus the observed delay at the worst target.
// They are kept verbatim so the tests can compare the allocation-free
// sweep kernels and the incremental evaluators against them on randomized
// inputs, and so bench/study_engine's pre-change engine keeps doing the
// pre-change delay work.
#pragma once

#include <optional>
#include <span>

#include "interval/delay_graph.hpp"
#include "metrics/delay.hpp"

namespace dosn::interval::oracle {

std::optional<Seconds> pair_delay(const DaySchedule& source,
                                  const DaySchedule& target,
                                  RendezvousMode mode);

GroupDelayResult group_delay(std::span<const DaySchedule> nodes,
                             RendezvousMode mode);

}  // namespace dosn::interval::oracle

namespace dosn::metrics::oracle {

DelayResult update_propagation_delay(const DaySchedule& owner,
                                     std::span<const DaySchedule> replicas,
                                     Connectivity connectivity);

}  // namespace dosn::metrics::oracle
