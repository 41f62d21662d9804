#include "placement/most_active.hpp"

#include <algorithm>

namespace dosn::placement {

void MostActivePolicy::select_impl(const PlacementContext& context,
                                   util::Rng& rng,
                                   PlacementScratch& scratch) const {
  DOSN_REQUIRE(context.trace != nullptr,
               "MostActive needs the activity trace");
  const std::span<const UserId> candidates = context.candidates;

  // Rank candidate indices: activity count descending, id ascending; the
  // zero-activity candidates follow, shuffled (a shuffle of indices draws
  // the same permutation as one of ids).
  std::vector<std::size_t>& counts = scratch.counts;
  std::vector<std::size_t>& order = scratch.order;
  std::vector<std::size_t>& idle = scratch.idle;
  counts.resize(candidates.size());
  order.clear();
  order.reserve(candidates.size());
  idle.clear();
  idle.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    counts[i] = context.trace->interaction_count(context.user, candidates[i]);
    (counts[i] > 0 ? order : idle).push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return counts[a] != counts[b] ? counts[a] > counts[b]
                                  : candidates[a] < candidates[b];
  });
  rng.shuffle(idle);
  order.insert(order.end(), idle.begin(), idle.end());

  // Each round takes the best-ranked candidate the frontier connects (under
  // UnconRep simply the next one in rank order).
  scratch.start(context);
  while (scratch.selection.size() < context.max_replicas) {
    const auto pick = std::ranges::find_if(
        order, [&](std::size_t i) { return scratch.eligible(i); });
    if (pick == order.end()) break;
    scratch.take(context, *pick);
  }
}

}  // namespace dosn::placement
