// Reference implementation of per-user evaluation as it was before the
// per-user tables: every metric from interval unions.
//
// evaluate_user unites the owner's and the holders' schedules into the
// profile and measures it against the contacts' demand union;
// evaluate_user_prefixes grows the profile union one pick at a time with
// IntervalSet::unite_with and classifies each activity by the first
// prefix whose holder covers it. Both are kept verbatim (without the obs
// counters) so the tests can compare sim::UserTable and the study engine
// with an evaluation that shares none of their segment or memo code.
#pragma once

#include <span>
#include <vector>

#include "sim/evaluate.hpp"

namespace dosn::sim::oracle {

UserMetrics evaluate_user(const trace::Dataset& dataset,
                          std::span<const DaySchedule> schedules,
                          graph::UserId u,
                          std::span<const graph::UserId> replica_holders,
                          placement::Connectivity connectivity);

std::vector<UserMetrics> evaluate_user_prefixes(
    const trace::Dataset& dataset, std::span<const DaySchedule> schedules,
    graph::UserId u, std::span<const graph::UserId> selected,
    placement::Connectivity connectivity, std::size_t k_max);

}  // namespace dosn::sim::oracle
