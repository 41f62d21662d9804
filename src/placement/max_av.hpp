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
/// The default max-gain rule runs as a CELF-style lazy greedy: marginal
/// gains are cached in a max-heap and only recomputed when a stale entry
/// reaches the top. Because coverage only grows, cached gains are upper
/// bounds (submodularity), so the lazy path selects exactly the same
/// replicas as a full per-round rescan while skipping most gain
/// evaluations. `lazy = false` forces the reference rescan implementation
/// (used by the equivalence tests and the engine benchmarks).
class MaxAvPolicy final : public ReplicaPolicy {
 public:
  explicit MaxAvPolicy(MaxAvObjective objective = MaxAvObjective::kAvailability,
                       bool conrep_least_overlap = false, bool lazy = true);

  std::string name() const override;
  void select_impl(const PlacementContext& context, util::Rng& rng,
                   PlacementScratch& scratch) const override;

 private:
  MaxAvObjective objective_;
  bool conrep_least_overlap_;
  bool lazy_;
};

}  // namespace dosn::placement
