// Reference implementations of the delay layer as it was first written.
//
// worst_case_wait probes every candidate event time of the source with
// wait_until_online, the circular wait until the target is next online.
// pair_delay materializes the rendezvous with the allocating
// DaySchedule::intersect, then runs worst_case_wait against it (the
// library's relay kernel is the one sweep form of both). group_delay is
// the batch Floyd–Warshall over those
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

/// Circular wait from time-of-day `t` until `schedule` is next online;
/// zero when online at t; nullopt when the schedule is empty. The result
/// is < kDaySeconds.
std::optional<Seconds> wait_until_online(const DaySchedule& schedule,
                                         Seconds t);

/// Result of a worst-case wait analysis: the maximal wait and a time-of-day
/// achieving it.
struct WorstWait {
  Seconds wait = 0;  ///< seconds until `target` is reachable, worst case
  Seconds at = 0;    ///< time-of-day of the worst-case event
};

/// Worst case, over event times t in `source`, of the circular wait from t
/// until the next instant `target` is online. This is the exact general form
/// of the paper's per-edge delay "24h − overlap" (to which it reduces when
/// both schedules are single daily intervals). Returns nullopt when either
/// schedule is empty.
std::optional<WorstWait> worst_case_wait(const DaySchedule& source,
                                         const DaySchedule& target);

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
