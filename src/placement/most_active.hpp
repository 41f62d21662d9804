// MostActive: replicate on the friends who interact with the profile most
// (Sec III-B of the paper).
#pragma once

#include "placement/policy.hpp"

namespace dosn::placement {

/// Ranks candidates by the number of activities they created on the user's
/// profile (descending, id ascending for determinism). Candidates with zero
/// recorded activity follow in random order, per the paper ("in case there
/// are no sufficient number of friends with non-zero activity, random
/// friends are chosen"). Under ConRep each step takes the best-ranked
/// *time-connected* remaining candidate.
class MostActivePolicy final : public ReplicaPolicy {
 public:
  std::string name() const override { return "MostActive"; }
  bool randomized() const override { return true; }  // zero-activity filler
  void select_impl(const PlacementContext& context, util::Rng& rng,
                   PlacementScratch& scratch) const override;
};

}  // namespace dosn::placement
