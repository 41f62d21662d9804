// MaxAv: greedy set-cover replica selection maximizing availability
// (Sec III-A of the paper).
#pragma once

#include "placement/policy.hpp"

namespace dosn::placement {

/// Greedy set cover: repeatedly select the candidate contributing the most
/// still-uncovered universe, stopping when no candidate improves coverage.
/// The universe depends on the objective:
///   * kAvailability — the union of candidate schedules; coverage is
///     seeded with the owner's own schedule (the owner always holds his
///     profile, so time he is online is already covered);
///   * kAoDTime      — the same universe without the owner seed;
///   * kAoDActivity  — the multiset of time-of-day instants of activities
///     received on the user's profile.
/// Under ConRep only time-connected candidates are eligible at each step;
/// with `conrep_least_overlap` the connected candidate with minimal overlap
/// with the covered set is picked instead of the max-gain one (the paper's
/// literal phrasing), still requiring positive gain. The rule applies to
/// every objective — for kAoDActivity the overlap is counted over covered
/// activity instants.
///
/// Both rules run as one CELF-style lazy greedy: each candidate's key
/// (gain, plus overlap under the least-overlap rule) is cached in a heap
/// and only recomputed when a stale entry reaches the top. Because coverage
/// only grows, a gain never rises and an overlap never falls, so a cached
/// key is never worse than the current one; the lazy greedy therefore
/// selects exactly the replicas of a full per-round rescan (kept in
/// tests/placement_oracle.cpp) while skipping most evaluations.
class MaxAvPolicy final : public ReplicaPolicy {
 public:
  explicit MaxAvPolicy(MaxAvObjective objective = MaxAvObjective::kAvailability,
                       bool conrep_least_overlap = false);

  std::string name() const override;
  void select_impl(const PlacementContext& context, util::Rng& rng,
                   PlacementScratch& scratch) const override;

 private:
  MaxAvObjective objective_;
  bool conrep_least_overlap_;
};

}  // namespace dosn::placement
