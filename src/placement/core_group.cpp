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
  std::vector<DaySchedule> group{owner};

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

      group.push_back(cand);
      const auto delay = interval::group_delay(group, mode);
      group.pop_back();
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
    const DaySchedule& sched = context.candidate_schedule(idx);
    covered.unite_with(sched.set(), &scratch.cover_buffer);
    group.push_back(sched);
  }
}

}  // namespace dosn::placement
