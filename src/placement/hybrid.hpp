// Hybrid: activity-rank x coverage-gain replica selection (extension).
//
// The paper praises MostActive for being "computationally simpler and not
// requiring knowledge of the user online times" yet notes MaxAv's coverage
// wins. Hybrid explores the continuum: each step scores every (connected)
// candidate as
//
//   score = alpha * activity_score + (1 - alpha) * coverage_score
//
// with both components normalized to [0, 1] over the current candidate
// pool. alpha = 1 degenerates to MostActive's ranking, alpha = 0 to MaxAv.
#pragma once

#include "placement/policy.hpp"

namespace dosn::placement {

class HybridPolicy final : public ReplicaPolicy {
 public:
  explicit HybridPolicy(double alpha = 0.5);

  std::string name() const override;
  void select_impl(const PlacementContext& context, util::Rng& rng,
                   PlacementScratch& scratch) const override;

  double alpha() const { return alpha_; }

 private:
  double alpha_;
};

}  // namespace dosn::placement
