// Reference implementations of the replica-selection policies as they were
// first written.
//
// Every ConRep loop here keeps a `DaySchedule connectivity_union` that
// starts as a copy of the owner's schedule, grows with each pick and is
// re-tested against every remaining candidate in every round through
// is_connected. The library replaced those loops with one lazy
// detail::ConnectivityFrontier; these bodies are kept verbatim so the tests
// can compare its selections, RNG consumption and CELF counters against
// them on randomized inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "placement/policy.hpp"

namespace dosn::placement::oracle {

/// True iff `candidate` may be selected given the connectivity set
/// accumulated so far (owner ∪ picks).
bool is_connected(const DaySchedule& candidate,
                  const DaySchedule& connectivity_union, bool any_selected);

/// The placement.maxav.* counts one MaxAv selection publishes.
struct MaxAvCounts {
  std::uint64_t gain_evals = 0;
  std::uint64_t lazy_hits = 0;
  std::uint64_t lazy_misses = 0;
  std::uint64_t parked = 0;
};

/// MaxAv greedy cover (CELF when `lazy` and not least-overlap, else the
/// full rescan). Adds its counts to *counts when non-null.
std::vector<UserId> max_av(const PlacementContext& context,
                           MaxAvObjective objective, bool least_overlap,
                           bool lazy, MaxAvCounts* counts = nullptr);

std::vector<UserId> most_active(const PlacementContext& context,
                                util::Rng& rng);

std::vector<UserId> random_replicas(const PlacementContext& context,
                                     util::Rng& rng);

std::vector<UserId> core_group(const PlacementContext& context);

std::vector<UserId> hybrid(const PlacementContext& context, double alpha);

/// The oracle selection of the policy make_policy(kind, params) builds.
std::vector<UserId> select(PolicyKind kind, const PolicyParams& params,
                           const PlacementContext& context, util::Rng& rng);

}  // namespace dosn::placement::oracle
