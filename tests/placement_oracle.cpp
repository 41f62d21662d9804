#include "placement_oracle.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "interval/delay_graph.hpp"
#include "util/check.hpp"

namespace dosn::placement::oracle {
namespace {

using interval::IntervalSet;

struct ScheduleOracle {
  const PlacementContext& context;
  IntervalSet covered;
  std::vector<interval::Interval> scratch;  ///< unite_with spare buffer

  std::int64_t gain(std::size_t i) const {
    return context.schedule_of(context.candidates[i])
        .set()
        .subtract_measure(covered);
  }
  std::int64_t overlap(std::size_t i) const {
    return context.schedule_of(context.candidates[i])
        .set()
        .intersection_measure(covered);
  }
  void commit(std::size_t i) {
    covered.unite_with(context.schedule_of(context.candidates[i]).set(),
                       &scratch);
  }
};

struct ActivityOracle {
  const PlacementContext& context;
  std::vector<Seconds> points;     // activity instants (time-of-day)
  std::vector<bool> covered;       // parallel to points

  std::int64_t gain(std::size_t i) const {
    const DaySchedule& cand = context.schedule_of(context.candidates[i]);
    std::int64_t g = 0;
    for (std::size_t p = 0; p < points.size(); ++p)
      if (!covered[p] && cand.set().contains(points[p])) ++g;
    return g;
  }
  std::int64_t overlap(std::size_t i) const {
    const DaySchedule& cand = context.schedule_of(context.candidates[i]);
    std::int64_t o = 0;
    for (std::size_t p = 0; p < points.size(); ++p)
      if (covered[p] && cand.set().contains(points[p])) ++o;
    return o;
  }
  void commit(std::size_t i) {
    const DaySchedule& cand = context.schedule_of(context.candidates[i]);
    for (std::size_t p = 0; p < points.size(); ++p)
      if (!covered[p] && cand.set().contains(points[p])) covered[p] = true;
  }
};

template <typename Oracle>
std::vector<UserId> greedy_eager(const PlacementContext& context,
                                 Oracle& oracle,
                                 DaySchedule connectivity_union,
                                 bool least_overlap, MaxAvCounts& counts) {
  const bool conrep = context.connectivity == Connectivity::kConRep;
  const bool by_overlap = conrep && least_overlap;

  std::vector<UserId> chosen;
  std::vector<bool> used(context.candidates.size(), false);
  std::vector<interval::Interval> union_scratch;
  std::uint64_t gain_evals = 0;

  while (chosen.size() < context.max_replicas) {
    std::ptrdiff_t best = -1;
    std::int64_t best_gain = 0;
    std::int64_t best_overlap = 0;
    for (std::size_t i = 0; i < context.candidates.size(); ++i) {
      if (used[i]) continue;
      const DaySchedule& cand = context.schedule_of(context.candidates[i]);
      if (conrep && !is_connected(cand, connectivity_union, !chosen.empty()))
        continue;
      ++gain_evals;
      const std::int64_t gain = oracle.gain(i);
      if (gain <= 0) continue;
      bool better = false;
      if (by_overlap) {
        const std::int64_t overlap = oracle.overlap(i);
        better = best < 0 || overlap < best_overlap ||
                 (overlap == best_overlap && gain > best_gain);
        if (better) best_overlap = overlap;
      } else {
        better = gain > best_gain;
      }
      if (better) {
        best = static_cast<std::ptrdiff_t>(i);
        best_gain = gain;
      }
    }
    if (best < 0) break;  // no candidate improves coverage (or none connected)
    const std::size_t idx = static_cast<std::size_t>(best);
    used[idx] = true;
    chosen.push_back(context.candidates[idx]);
    oracle.commit(idx);
    connectivity_union.unite_with(context.schedule_of(context.candidates[idx]),
                                  &union_scratch);
  }
  counts.gain_evals += gain_evals;
  return chosen;
}

struct LazyEntry {
  std::int64_t gain = 0;
  std::size_t index = 0;
  std::size_t stamp = 0;  ///< |chosen| at the time `gain` was computed
};

struct LazyEntryLess {
  bool operator()(const LazyEntry& a, const LazyEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.index > b.index;
  }
};

template <typename Oracle>
std::vector<UserId> greedy_lazy(const PlacementContext& context,
                                Oracle& oracle,
                                DaySchedule connectivity_union,
                                MaxAvCounts& counts) {
  const bool conrep = context.connectivity == Connectivity::kConRep;

  std::uint64_t gain_evals = 0;
  std::uint64_t lazy_hits = 0;
  std::uint64_t lazy_misses = 0;
  std::uint64_t parked_count = 0;

  std::priority_queue<LazyEntry, std::vector<LazyEntry>, LazyEntryLess> heap;
  for (std::size_t i = 0; i < context.candidates.size(); ++i) {
    ++gain_evals;
    const std::int64_t gain = oracle.gain(i);
    if (gain > 0) heap.push({gain, i, 0});
  }

  std::vector<UserId> chosen;
  std::vector<LazyEntry> parked;  // disconnected this round
  std::vector<interval::Interval> union_scratch;
  while (chosen.size() < context.max_replicas && !heap.empty()) {
    std::ptrdiff_t picked = -1;
    while (!heap.empty()) {
      LazyEntry top = heap.top();
      heap.pop();
      if (conrep &&
          !is_connected(context.schedule_of(context.candidates[top.index]),
                        connectivity_union, !chosen.empty())) {
        parked.push_back(top);
        ++parked_count;
        continue;
      }
      if (top.stamp == chosen.size()) {
        ++lazy_hits;
        picked = static_cast<std::ptrdiff_t>(top.index);
        break;
      }
      ++lazy_misses;
      ++gain_evals;
      top.gain = oracle.gain(top.index);
      if (top.gain <= 0) continue;
      top.stamp = chosen.size();
      heap.push(top);
    }
    if (picked < 0) break;  // nothing connected improves coverage
    const std::size_t idx = static_cast<std::size_t>(picked);
    chosen.push_back(context.candidates[idx]);
    oracle.commit(idx);
    connectivity_union.unite_with(context.schedule_of(context.candidates[idx]),
                                  &union_scratch);
    for (const LazyEntry& e : parked) heap.push(e);
    parked.clear();
  }
  counts.gain_evals += gain_evals;
  counts.lazy_hits += lazy_hits;
  counts.lazy_misses += lazy_misses;
  counts.parked += parked_count;
  return chosen;
}

template <typename Oracle>
std::vector<UserId> run_greedy(const PlacementContext& context,
                               Oracle& oracle, const DaySchedule& owner,
                               bool least_overlap, bool lazy,
                               MaxAvCounts& counts) {
  const bool by_overlap =
      context.connectivity == Connectivity::kConRep && least_overlap;
  if (lazy && !by_overlap) return greedy_lazy(context, oracle, owner, counts);
  return greedy_eager(context, oracle, owner, least_overlap, counts);
}

}  // namespace

bool is_connected(const DaySchedule& candidate,
                  const DaySchedule& connectivity_union, bool any_selected) {
  if (!connectivity_union.empty())
    return candidate.intersects(connectivity_union);
  // The connectivity set is empty (owner never online): the first replica
  // seeds connectivity, so any candidate with a schedule qualifies; after
  // that nothing can connect to an empty union.
  return !any_selected && !candidate.empty();
}

std::vector<UserId> max_av(const PlacementContext& context,
                           MaxAvObjective objective, bool least_overlap,
                           bool lazy, MaxAvCounts* counts) {
  MaxAvCounts local;
  MaxAvCounts& tally = counts != nullptr ? *counts : local;
  const DaySchedule& owner = context.schedule_of(context.user);
  if (objective != MaxAvObjective::kAoDActivity) {
    ScheduleOracle oracle{context,
                          objective == MaxAvObjective::kAvailability
                              ? owner.set()
                              : IntervalSet{},
                          {}};
    return run_greedy(context, oracle, owner, least_overlap, lazy, tally);
  }
  DOSN_REQUIRE(context.trace != nullptr,
               "MaxAv(aod-activity) needs the activity trace");
  ActivityOracle oracle{context, {}, {}};
  for (const auto& a : context.trace->received_by(context.user))
    oracle.points.push_back(interval::time_of_day(a.timestamp));
  oracle.covered.assign(oracle.points.size(), false);
  for (std::size_t p = 0; p < oracle.points.size(); ++p)
    if (owner.set().contains(oracle.points[p])) oracle.covered[p] = true;
  return run_greedy(context, oracle, owner, least_overlap, lazy, tally);
}

std::vector<UserId> most_active(const PlacementContext& context,
                                util::Rng& rng) {
  DOSN_REQUIRE(context.trace != nullptr,
               "MostActive needs the activity trace");
  const bool conrep = context.connectivity == Connectivity::kConRep;

  // Rank: activity count descending; zero-activity candidates shuffled.
  struct Ranked {
    UserId id;
    std::size_t count;
  };
  std::vector<Ranked> active;
  std::vector<UserId> idle;
  for (UserId f : context.candidates) {
    const std::size_t c = context.trace->interaction_count(context.user, f);
    if (c > 0)
      active.push_back({f, c});
    else
      idle.push_back(f);
  }
  std::sort(active.begin(), active.end(), [](const Ranked& a, const Ranked& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.id < b.id;
  });
  rng.shuffle(idle);

  std::vector<UserId> order;
  order.reserve(context.candidates.size());
  for (const auto& r : active) order.push_back(r.id);
  order.insert(order.end(), idle.begin(), idle.end());

  std::vector<UserId> chosen;
  if (!conrep) {
    const std::size_t take = std::min(order.size(), context.max_replicas);
    chosen.assign(order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(take));
    return chosen;
  }

  DaySchedule connectivity_union = context.schedule_of(context.user);
  std::vector<bool> used(order.size(), false);
  while (chosen.size() < context.max_replicas) {
    std::ptrdiff_t pick = -1;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (used[i]) continue;
      if (is_connected(context.schedule_of(order[i]), connectivity_union,
                       !chosen.empty())) {
        pick = static_cast<std::ptrdiff_t>(i);
        break;  // order is the rank order: first hit is best-ranked
      }
    }
    if (pick < 0) break;
    used[static_cast<std::size_t>(pick)] = true;
    const UserId f = order[static_cast<std::size_t>(pick)];
    chosen.push_back(f);
    connectivity_union = connectivity_union.unite(context.schedule_of(f));
  }
  return chosen;
}

std::vector<UserId> random_replicas(const PlacementContext& context,
                                     util::Rng& rng) {
  std::vector<UserId> pool(context.candidates.begin(),
                           context.candidates.end());
  const bool conrep = context.connectivity == Connectivity::kConRep;

  std::vector<UserId> chosen;
  if (!conrep) {
    rng.shuffle(pool);
    const std::size_t take = std::min(pool.size(), context.max_replicas);
    chosen.assign(pool.begin(),
                  pool.begin() + static_cast<std::ptrdiff_t>(take));
    return chosen;
  }

  DaySchedule connectivity_union = context.schedule_of(context.user);
  while (chosen.size() < context.max_replicas && !pool.empty()) {
    std::vector<std::size_t> connected;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (is_connected(context.schedule_of(pool[i]), connectivity_union,
                       !chosen.empty()))
        connected.push_back(i);
    }
    if (connected.empty()) break;
    const std::size_t pick =
        connected[static_cast<std::size_t>(rng.below(connected.size()))];
    const UserId f = pool[pick];
    chosen.push_back(f);
    connectivity_union = connectivity_union.unite(context.schedule_of(f));
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return chosen;
}

std::vector<UserId> core_group(const PlacementContext& context) {
  const bool conrep = context.connectivity == Connectivity::kConRep;
  const auto mode = conrep ? interval::RendezvousMode::kDirect
                           : interval::RendezvousMode::kRelay;
  const DaySchedule& owner = context.schedule_of(context.user);

  interval::IntervalSet covered = owner.set();
  DaySchedule connectivity_union = owner;
  std::vector<DaySchedule> group{owner};

  std::vector<UserId> chosen;
  std::vector<bool> used(context.candidates.size(), false);

  while (chosen.size() < context.max_replicas) {
    std::ptrdiff_t best = -1;
    Seconds best_diameter = 0;
    Seconds best_gain = 0;
    for (std::size_t i = 0; i < context.candidates.size(); ++i) {
      if (used[i]) continue;
      const DaySchedule& cand = context.schedule_of(context.candidates[i]);
      if (conrep && !is_connected(cand, connectivity_union, !chosen.empty()))
        continue;
      const Seconds gain = cand.set().subtract(covered).measure();
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
    used[static_cast<std::size_t>(best)] = true;
    const UserId f = context.candidates[static_cast<std::size_t>(best)];
    chosen.push_back(f);
    const DaySchedule& sched = context.schedule_of(f);
    covered = covered.unite(sched.set());
    connectivity_union = connectivity_union.unite(sched);
    group.push_back(sched);
  }
  return chosen;
}

std::vector<UserId> hybrid(const PlacementContext& context, double alpha) {
  DOSN_REQUIRE(context.trace != nullptr, "Hybrid needs the activity trace");
  const bool conrep = context.connectivity == Connectivity::kConRep;
  const DaySchedule& owner = context.schedule_of(context.user);

  std::vector<double> activity(context.candidates.size());
  double max_activity = 0.0;
  for (std::size_t i = 0; i < context.candidates.size(); ++i) {
    activity[i] = static_cast<double>(context.trace->interaction_count(
        context.user, context.candidates[i]));
    max_activity = std::max(max_activity, activity[i]);
  }
  if (max_activity > 0.0)
    for (auto& a : activity) a /= max_activity;

  interval::IntervalSet covered = owner.set();
  DaySchedule connectivity_union = owner;
  std::vector<UserId> chosen;
  std::vector<bool> used(context.candidates.size(), false);

  while (chosen.size() < context.max_replicas) {
    // Collect eligible candidates with their raw coverage gains first: the
    // coverage component is normalized over the current pool.
    std::vector<std::pair<std::size_t, Seconds>> eligible;
    Seconds max_gain = 0;
    for (std::size_t i = 0; i < context.candidates.size(); ++i) {
      if (used[i]) continue;
      const DaySchedule& cand = context.schedule_of(context.candidates[i]);
      if (conrep && !is_connected(cand, connectivity_union, !chosen.empty()))
        continue;
      const Seconds gain = cand.set().subtract(covered).measure();
      eligible.emplace_back(i, gain);
      max_gain = std::max(max_gain, gain);
    }
    if (eligible.empty()) break;

    std::ptrdiff_t best = -1;
    double best_score = -1.0;
    for (const auto& [i, gain] : eligible) {
      const double coverage =
          max_gain > 0 ? static_cast<double>(gain) /
                             static_cast<double>(max_gain)
                       : 0.0;
      const double score = alpha * activity[i] + (1.0 - alpha) * coverage;
      if (score > best_score) {
        best_score = score;
        best = static_cast<std::ptrdiff_t>(i);
      }
    }
    // Stop once no candidate contributes on either axis.
    if (best < 0 || best_score <= 0.0) break;
    used[static_cast<std::size_t>(best)] = true;
    const UserId f = context.candidates[static_cast<std::size_t>(best)];
    chosen.push_back(f);
    const DaySchedule& sched = context.schedule_of(f);
    covered = covered.unite(sched.set());
    connectivity_union = connectivity_union.unite(sched);
  }
  return chosen;
}

std::vector<UserId> select(PolicyKind kind, const PolicyParams& params,
                           const PlacementContext& context, util::Rng& rng) {
  switch (kind) {
    case PolicyKind::kMaxAv:
      return max_av(context, params.objective, params.conrep_least_overlap,
                    /*lazy=*/true);
    case PolicyKind::kMostActive: return most_active(context, rng);
    case PolicyKind::kRandom: return random_replicas(context, rng);
    case PolicyKind::kCoreGroup: return core_group(context);
    case PolicyKind::kHybrid: return hybrid(context, params.hybrid_alpha);
  }
  DOSN_UNREACHABLE("unknown PolicyKind");
}

}  // namespace dosn::placement::oracle
