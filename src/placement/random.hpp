// Random: uniformly random replica holders (Sec III-C of the paper).
#pragma once

#include "placement/policy.hpp"

namespace dosn::placement {

/// UnconRep: a uniformly random subset, in random order. ConRep: each step
/// picks uniformly among the still-unchosen *time-connected* candidates.
class RandomPolicy final : public ReplicaPolicy {
 public:
  std::string name() const override { return "Random"; }
  bool randomized() const override { return true; }
  void select_impl(const PlacementContext& context, util::Rng& rng,
                   PlacementScratch& scratch) const override;
};

}  // namespace dosn::placement
