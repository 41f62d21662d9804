#include "placement/core_group.hpp"

#include <limits>

#include "interval/delay_graph.hpp"

namespace dosn::placement {

void CoreGroupPolicy::select_impl(const PlacementContext& context, util::Rng&,
                                  PlacementScratch& scratch) const {
  const bool conrep = context.connectivity == Connectivity::kConRep;
  const auto mode = conrep ? interval::RendezvousMode::kDirect
                           : interval::RendezvousMode::kRelay;
  const DaySchedule& owner = context.schedule_of(context.user);

  interval::IntervalSet& covered = scratch.covered = owner.set();
  // Every round reads the same pair edges, so each pair's kernel runs at
  // most once per selection.
  interval::PairDelayMemo& memo = scratch.memo;
  memo.reset(mode, context.candidates.size() + 1);
  memo.set_node(0, owner.set().pieces());
  std::size_t cover_pieces = owner.set().pieces().size();
  for (std::size_t i = 0; i < context.candidates.size(); ++i) {
    const auto pieces = context.candidate_schedule(i).set().pieces();
    memo.set_node(i + 1, pieces);
    cover_pieces += pieces.size();
  }
  // No union of the picks holds more pieces than the owner and every
  // candidate together, so which candidates are picked never decides
  // whether a select allocates.
  covered.reserve(cover_pieces);
  scratch.cover_buffer.reserve(cover_pieces);
  scratch.group.reset(mode);
  scratch.group.push(0, memo);

  scratch.start(context);
  while (scratch.selection.size() < context.max_replicas) {
    std::ptrdiff_t best = -1;
    Seconds best_diameter = 0;
    Seconds best_gain = 0;
    for (std::size_t i = 0; i < context.candidates.size(); ++i) {
      if (!scratch.eligible(i)) continue;
      const DaySchedule& cand = context.candidate_schedule(i);
      const Seconds gain = cand.set().subtract_measure(covered);
      if (gain <= 0) continue;  // only replicas that add availability

      scratch.trial = scratch.group;
      scratch.trial.push(i + 1, memo);
      const auto delay = scratch.trial.result();
      // Candidates that would split the group are never preferable.
      const Seconds diameter =
          delay.fully_connected ? delay.diameter
                                : std::numeric_limits<Seconds>::max() / 2;

      const bool better = best < 0 || diameter < best_diameter ||
                          (diameter == best_diameter && gain > best_gain);
      if (better) {
        best = static_cast<std::ptrdiff_t>(i);
        best_diameter = diameter;
        best_gain = gain;
      }
    }
    if (best < 0) break;
    const std::size_t idx = static_cast<std::size_t>(best);
    scratch.take(context, idx);
    covered.unite_with(context.candidate_schedule(idx).set(),
                       &scratch.cover_buffer);
    scratch.group.push(idx + 1, memo);
  }
}

}  // namespace dosn::placement
