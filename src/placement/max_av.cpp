#include "placement/max_av.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace dosn::placement {

using interval::IntervalSet;

namespace {

/// Greedy-core metrics (DESIGN.md §9). Every count is batched in plain
/// locals inside the greedy loops and flushed once per selection, so the
/// hot path never touches an atomic.
inline constexpr std::int64_t kSelectedKBounds[] = {0, 1, 2, 3, 4, 6, 8, 12};

struct PlacementMetrics {
  obs::Counter& selections =
      obs::Registry::global().counter("placement.maxav.selections");
  /// Marginal-gain oracle invocations (initial scan + CELF recomputes).
  obs::Counter& gain_evals =
      obs::Registry::global().counter("placement.maxav.gain_evals");
  /// CELF picks accepted straight off the heap without recomputation.
  obs::Counter& lazy_hits =
      obs::Registry::global().counter("placement.maxav.lazy_hits");
  /// CELF pops whose cached upper bound was stale and had to be refreshed.
  obs::Counter& lazy_misses =
      obs::Registry::global().counter("placement.maxav.lazy_misses");
  /// ConRep candidates parked for a round while disconnected.
  obs::Counter& parked =
      obs::Registry::global().counter("placement.maxav.parked");
  obs::Histogram& selected_k = obs::Registry::global().histogram(
      "placement.maxav.selected_k", kSelectedKBounds);
};

PlacementMetrics& placement_metrics() {
  static PlacementMetrics m;
  return m;
}

// Both MaxAv universes (schedule seconds, activity instants) are covered
// through the same greedy skeleton, abstracted as an oracle:
//   gain(i)    — marginal coverage candidate i adds to the covered set;
//   overlap(i) — measure of candidate i's schedule already covered (the
//                ConRep least-overlap key);
//   commit(i)  — fold candidate i into the covered set.
// Coverage only grows, so gain(i) is non-increasing and overlap(i)
// non-decreasing across rounds — the property the lazy evaluation below
// relies on.

struct ScheduleOracle {
  const PlacementContext& context;
  IntervalSet& covered;
  std::vector<interval::Interval>& buffer;  ///< unite_with spare buffer

  std::int64_t gain(std::size_t i) const {
    // subtract_measure sweeps without materializing the difference set —
    // the by-far hottest call of a MaxAv candidate scan.
    return context.candidate_schedule(i).set().subtract_measure(covered);
  }
  std::int64_t overlap(std::size_t i) const {
    return context.candidate_schedule(i).set().intersection_measure(covered);
  }
  void commit(std::size_t i) {
    covered.unite_with(context.candidate_schedule(i).set(), &buffer);
  }
};

struct ActivityOracle {
  const PlacementContext& context;
  std::span<const Seconds> points;        // activity instants (time-of-day)
  std::span<std::uint8_t> covered;        // parallel to points

  std::int64_t gain(std::size_t i) const {
    const DaySchedule& cand = context.candidate_schedule(i);
    std::int64_t g = 0;
    for (std::size_t p = 0; p < points.size(); ++p)
      if (!covered[p] && cand.set().contains(points[p])) ++g;
    return g;
  }
  std::int64_t overlap(std::size_t i) const {
    const DaySchedule& cand = context.candidate_schedule(i);
    std::int64_t o = 0;
    for (std::size_t p = 0; p < points.size(); ++p)
      if (covered[p] && cand.set().contains(points[p])) ++o;
    return o;
  }
  void commit(std::size_t i) {
    const DaySchedule& cand = context.candidate_schedule(i);
    for (std::size_t p = 0; p < points.size(); ++p)
      if (!covered[p] && cand.set().contains(points[p])) covered[p] = 1;
  }
};

/// CELF lazy greedy (Leskovec et al., "Cost-effective Outbreak Detection")
/// for both selection rules. The heap orders entries by their cached key:
/// larger gain first under the max-gain rule; under `ByOverlap` (the ConRep
/// least-overlap rule) smaller overlap first, then larger gain. Lower index
/// breaks the remaining ties, so the order is the full rescan's "first best
/// candidate". Since a gain never rises and an overlap never falls, a
/// cached key is never worse than the current one. A popped entry computed
/// this round is therefore exact and beats every other bound, so it is
/// picked without rescanning; otherwise both gain and overlap are
/// recomputed and the entry reinserted. Candidates whose gain drops to zero
/// are discarded permanently (gains never recover), while
/// ConRep-disconnected candidates are parked for the round and re-enter the
/// heap afterwards (the frontier can connect them after the next pick).
/// The overlap bounds live per candidate in scratch.overlap, so the
/// max-gain heap keeps its 24-byte entries.
template <bool ByOverlap, typename Oracle>
void greedy_lazy(const PlacementContext& context, Oracle& oracle,
                 PlacementScratch& scratch) {
  std::vector<std::int64_t>& overlap = scratch.overlap;
  // No index is in the heap twice, so the order is total and the pops do
  // not depend on the heap's layout.
  const auto less = [&](const detail::LazyEntry& a,
                        const detail::LazyEntry& b) {
    if constexpr (ByOverlap) {
      if (overlap[a.index] != overlap[b.index])
        return overlap[a.index] > overlap[b.index];
    }
    return a.gain != b.gain ? a.gain < b.gain : a.index > b.index;
  };

  std::uint64_t gain_evals = 0;
  std::uint64_t lazy_hits = 0;
  std::uint64_t lazy_misses = 0;
  std::uint64_t parked_count = 0;

  std::vector<detail::LazyEntry>& heap = scratch.heap;
  std::vector<detail::LazyEntry>& parked = scratch.parked;
  heap.clear();
  heap.reserve(context.candidates.size());
  parked.clear();
  parked.reserve(context.candidates.size());
  // Read only at indices in the heap, each written before it is pushed.
  if constexpr (ByOverlap) overlap.resize(context.candidates.size());
  for (std::size_t i = 0; i < context.candidates.size(); ++i) {
    ++gain_evals;
    const std::int64_t gain = oracle.gain(i);
    if (gain <= 0) continue;
    if constexpr (ByOverlap) overlap[i] = oracle.overlap(i);
    heap.push_back({gain, i, 0});
  }
  std::make_heap(heap.begin(), heap.end(), less);

  while (scratch.selection.size() < context.max_replicas && !heap.empty()) {
    std::ptrdiff_t picked = -1;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), less);
      detail::LazyEntry top = heap.back();
      heap.pop_back();
      if (!scratch.frontier.connected(top.index)) {
        parked.push_back(top);
        ++parked_count;
        continue;
      }
      if (top.stamp == scratch.selection.size()) {
        ++lazy_hits;
        picked = static_cast<std::ptrdiff_t>(top.index);
        break;
      }
      ++lazy_misses;
      ++gain_evals;
      top.gain = oracle.gain(top.index);
      if (top.gain <= 0) continue;
      if constexpr (ByOverlap) overlap[top.index] = oracle.overlap(top.index);
      top.stamp = scratch.selection.size();
      heap.push_back(top);
      std::push_heap(heap.begin(), heap.end(), less);
    }
    if (picked < 0) break;  // nothing connected improves coverage
    oracle.commit(static_cast<std::size_t>(picked));
    scratch.take(context, static_cast<std::size_t>(picked));
    for (const detail::LazyEntry& e : parked) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), less);
    }
    parked.clear();
  }
  PlacementMetrics& m = placement_metrics();
  m.gain_evals.add(gain_evals);
  m.lazy_hits.add(lazy_hits);
  m.lazy_misses.add(lazy_misses);
  m.parked.add(parked_count);
}

}  // namespace

MaxAvPolicy::MaxAvPolicy(MaxAvObjective objective, bool conrep_least_overlap)
    : objective_(objective), conrep_least_overlap_(conrep_least_overlap) {}

std::string MaxAvPolicy::name() const {
  switch (objective_) {
    case MaxAvObjective::kAvailability: return "MaxAv";
    case MaxAvObjective::kAoDTime: return "MaxAv(aod-time)";
    case MaxAvObjective::kAoDActivity: return "MaxAv(aod-activity)";
  }
  return "MaxAv(?)";
}

void MaxAvPolicy::select_impl(const PlacementContext& context, util::Rng&,
                              PlacementScratch& scratch) const {
  const bool by_overlap = conrep_least_overlap_ &&
                          context.connectivity == Connectivity::kConRep;
  scratch.start(context);
  const auto run = [&](auto oracle) {
    if (by_overlap)
      greedy_lazy<true>(context, oracle, scratch);
    else
      greedy_lazy<false>(context, oracle, scratch);
  };
  const IntervalSet& owner = context.schedule_of(context.user).set();
  if (objective_ == MaxAvObjective::kAoDActivity) {
    DOSN_REQUIRE(context.trace != nullptr,
                 "MaxAv(aod-activity) needs the activity trace");
    // Universe: time-of-day instants of the activities received on the
    // user's profile in the observed past.
    scratch.points.clear();
    scratch.point_covered.clear();
    for (const auto& a : context.trace->received_by(context.user)) {
      const Seconds t = interval::time_of_day(a.timestamp);
      scratch.points.push_back(t);
      scratch.point_covered.push_back(owner.contains(t) ? 1 : 0);
    }
    run(ActivityOracle{context, scratch.points, scratch.point_covered});
  } else {
    scratch.covered.clear();
    if (objective_ == MaxAvObjective::kAvailability) scratch.covered = owner;
    // Room for the owner's and every pick's pieces in both unite_with buffers.
    std::size_t widest = 0;
    for (const UserId f : context.candidates)
      widest = std::max(widest, context.schedule_of(f).set().piece_count());
    const std::size_t pieces =
        owner.piece_count() +
        widest * std::min(context.max_replicas, context.candidates.size());
    scratch.covered.reserve(pieces);
    scratch.cover_buffer.reserve(pieces);
    run(ScheduleOracle{context, scratch.covered, scratch.cover_buffer});
  }
  PlacementMetrics& m = placement_metrics();
  m.selections.add(1);
  m.selected_k.record(static_cast<std::int64_t>(scratch.selection.size()));
}

}  // namespace dosn::placement
