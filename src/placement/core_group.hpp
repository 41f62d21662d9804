// CoreGroup: delay-aware replica selection (extension).
//
// The paper's discussion (Sec V-C) observes that to cut the propagation
// delay "the non-overlapping times among profile replicas have to be
// reduced; this could be achieved with longer online times of a certain
// core group of friends". This policy operationalizes that: a greedy that,
// among candidates still adding coverage, picks the one whose addition
// keeps the group's worst-case delay diameter smallest (tie-break: larger
// coverage gain). It trades a little availability for much fresher data —
// the ablation harness quantifies the trade.
#pragma once

#include "placement/policy.hpp"

namespace dosn::placement {

class CoreGroupPolicy final : public ReplicaPolicy {
 public:
  std::string name() const override { return "CoreGroup"; }
  void select_impl(const PlacementContext& context, util::Rng& rng,
                   PlacementScratch& scratch) const override;
};

}  // namespace dosn::placement
