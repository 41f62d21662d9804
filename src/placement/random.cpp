#include "placement/random.hpp"

namespace dosn::placement {

void RandomPolicy::select_impl(const PlacementContext& context,
                               util::Rng& rng,
                               PlacementScratch& scratch) const {
  std::vector<UserId>& chosen = scratch.selection;
  if (context.connectivity != Connectivity::kConRep) {
    chosen.assign(context.candidates.begin(), context.candidates.end());
    rng.shuffle(chosen);
    chosen.resize(std::min(chosen.size(), context.max_replicas));
    return;
  }

  // Each round draws uniformly among the eligible candidates, in order.
  scratch.start(context);
  std::vector<std::size_t>& connected = scratch.order;
  connected.reserve(context.candidates.size());
  while (chosen.size() < context.max_replicas) {
    connected.clear();
    for (std::size_t i = 0; i < context.candidates.size(); ++i)
      if (scratch.eligible(i)) connected.push_back(i);
    if (connected.empty()) break;
    scratch.take(context, connected[static_cast<std::size_t>(
                              rng.below(connected.size()))]);
  }
}

}  // namespace dosn::placement
