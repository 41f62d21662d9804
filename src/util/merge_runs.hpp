// Bottom-up merge of consecutive sorted runs.
//
// Producers that emit their output as a handful of runs each already in
// order (a node's events, a member's day-major sessions) need only the
// log2(runs) merge levels between them, not a full O(n log n) sort. The
// replica simulator's event list and interval::SortedRunUnion both merge
// through this one routine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace dosn::util {

/// Sorts `data` by `less`, given that `bounds` (ascending, bounds.front()
/// == 0, bounds.back() == data.size()) delimits consecutive runs already
/// sorted by `less`: run r is [bounds[r], bounds[r + 1]). Runs are merged
/// pairwise, bottom-up, each level ping-ponging between `data` and
/// `scratch`: O(n log runs) comparisons. Stable, so ties keep run order.
/// `scratch` is grown but never shrunk, and the two buffers may trade
/// storage, so a caller that reuses both does no allocation once they have
/// warmed up.
template <typename T, typename Less>
void merge_runs(std::vector<T>& data, std::span<const std::size_t> bounds,
                std::vector<T>& scratch, Less less) {
  const std::size_t runs = bounds.empty() ? 0 : bounds.size() - 1;
  if (runs < 2) return;
  const std::size_t n = data.size();
  if (scratch.size() < n) scratch.resize(n);
  const auto at = [&](std::size_t r) { return bounds[std::min(r, runs)]; };
  T* src = data.data();
  T* dst = scratch.data();
  for (std::size_t width = 1; width < runs; width *= 2) {
    for (std::size_t r = 0; r < runs; r += 2 * width) {
      const std::size_t lo = at(r), mid = at(r + width), hi = at(r + 2 * width);
      std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo, less);
    }
    std::swap(src, dst);
  }
  if (src != data.data()) {
    data.swap(scratch);
    data.resize(n);  // scratch may have been the longer buffer
  }
}

}  // namespace dosn::util
