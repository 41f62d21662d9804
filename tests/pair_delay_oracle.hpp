// Reference implementations of the delay layer as it was first written.
//
// pair_delay materializes the rendezvous with the allocating
// DaySchedule::intersect, then probes every candidate event time with
// worst_case_wait. group_delay is the batch Floyd–Warshall over those
// edges, and metrics::oracle::update_propagation_delay is group_delay over
// the owner and the replicas plus the observed delay at the worst target,
// which worst_observed_delay finds with one online_within_window scan per
// reader piece end. They are kept verbatim so the tests can compare the
// allocation-free sweep kernels and the incremental evaluators against
// them on randomized inputs, and so bench/study_engine's pre-change engine
// keeps doing the pre-change delay work.
#pragma once

#include <optional>
#include <span>

#include "interval/delay_graph.hpp"
#include "metrics/delay.hpp"

namespace dosn::interval::oracle {

/// Seconds `schedule` is online inside the circular window [t, t + length);
/// length may exceed one day (full cycles count fully).
Seconds online_within_window(const DaySchedule& schedule, Seconds t,
                             Seconds length);

std::optional<Seconds> pair_delay(const DaySchedule& source,
                                  const DaySchedule& target,
                                  RendezvousMode mode);

GroupDelayResult group_delay(std::span<const DaySchedule> nodes,
                             RendezvousMode mode);

}  // namespace dosn::interval::oracle

namespace dosn::metrics::oracle {

/// metrics::worst_observed_delay as first written: the best window over
/// every reader piece end, each scanned with online_within_window, so
/// O(pieces²).
Seconds worst_observed_delay(const DaySchedule& reader, Seconds actual);

DelayResult update_propagation_delay(const DaySchedule& owner,
                                     std::span<const DaySchedule> replicas,
                                     Connectivity connectivity);

}  // namespace dosn::metrics::oracle
