#include "pair_delay_oracle.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace dosn::interval::oracle {
namespace {

constexpr Seconds kInf = std::numeric_limits<Seconds>::max() / 4;

// Closure membership in circular time: t is in the closure of the set when
// it lies inside a piece or on a piece boundary (a piece ending at 86400
// closes onto time-of-day 0).
bool closure_contains(const IntervalSet& set, Seconds t) {
  if (set.contains(t)) return true;
  for (const auto& piece : set.pieces())
    if (time_of_day(piece.end) == t) return true;
  return false;
}

}  // namespace

std::optional<Seconds> wait_until_online(const DaySchedule& schedule,
                                         Seconds t) {
  const IntervalSet& set = schedule.set();
  if (set.empty()) return std::nullopt;
  t = time_of_day(t);
  if (set.contains(t)) return 0;
  if (auto next = set.next_at_or_after(t)) return *next - t;
  return *set.first() + kDaySeconds - t;  // wrap to tomorrow's first piece
}

std::optional<WorstWait> worst_case_wait(const DaySchedule& source,
                                         const DaySchedule& target) {
  if (source.empty() || target.empty()) return std::nullopt;

  // wait(t) decreases with slope -1 as t advances (and is 0 inside the
  // target), jumping up exactly when t leaves a target interval. Hence the
  // maximum over event times in the *closure* of `source` is attained
  // either at the start of a source interval or at the end of a target
  // interval touching the source (the node posts an update the instant the
  // rendezvous window closes — the paper's worst case, which makes the
  // single-interval edge weight exactly 24h − overlap).
  WorstWait best{-1, 0};
  auto consider = [&](Seconds t) {
    const auto wait = wait_until_online(target, t);
    DOSN_ASSERT(wait.has_value());
    if (*wait > best.wait) best = WorstWait{*wait, t};
  };

  for (const auto& iv : source.set().pieces()) consider(iv.start);
  for (const auto& iv : target.set().pieces()) {
    const Seconds e = time_of_day(iv.end);  // iv.end == kDaySeconds wraps to 0
    if (closure_contains(source.set(), e)) consider(e);
  }
  DOSN_ASSERT(best.wait >= 0);
  return best;
}

Seconds online_within_window(const DaySchedule& schedule, Seconds t,
                             Seconds length) {
  const auto pieces = schedule.set().pieces();
  if (length <= 0 || pieces.empty()) return 0;
  // Online seconds inside [lo, hi) of one day.
  const auto within = [pieces](Seconds lo, Seconds hi) {
    Seconds total = 0;
    for (const auto& iv : pieces) {
      const Seconds a = std::max(iv.start, lo);
      const Seconds b = std::min(iv.end, hi);
      if (a < b) total += b - a;
    }
    return total;
  };
  t = time_of_day(t);
  const Seconds full_days = length / kDaySeconds;
  const Seconds rem = length % kDaySeconds;
  Seconds total = full_days > 0 ? full_days * within(0, kDaySeconds) : 0;
  const Seconds e = t + rem;
  if (e <= kDaySeconds) {
    total += within(t, e);
  } else {
    total += within(t, kDaySeconds);
    total += within(0, e - kDaySeconds);
  }
  return total;
}

std::optional<Seconds> pair_delay(const DaySchedule& source,
                                  const DaySchedule& target,
                                  RendezvousMode mode) {
  if (source.empty() || target.empty()) return std::nullopt;
  if (mode == RendezvousMode::kDirect) {
    const DaySchedule rendezvous = source.intersect(target);
    if (rendezvous.empty()) return std::nullopt;
    const auto worst = worst_case_wait(source, rendezvous);
    DOSN_ASSERT(worst.has_value());
    return worst->wait;
  }
  const auto worst = worst_case_wait(source, target);
  DOSN_ASSERT(worst.has_value());
  return worst->wait;
}

GroupDelayResult group_delay(std::span<const DaySchedule> nodes,
                             RendezvousMode mode) {
  // Participants: nodes that are ever online.
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (!nodes[i].empty()) index.push_back(i);

  GroupDelayResult result;
  result.participants = index.size();
  if (index.size() < 2) return result;

  const std::size_t n = index.size();
  std::vector<Seconds> dist(n * n, kInf);
  auto at = [&](std::size_t i, std::size_t j) -> Seconds& {
    return dist[i * n + j];
  };
  for (std::size_t i = 0; i < n; ++i) {
    at(i, i) = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (auto w = oracle::pair_delay(nodes[index[i]], nodes[index[j]], mode))
        at(i, j) = *w;
    }
  }

  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i) {
      if (at(i, k) == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (at(k, j) == kInf) continue;
        at(i, j) = std::min(at(i, j), at(i, k) + at(k, j));
      }
    }

  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (at(i, j) == kInf) {
        result.fully_connected = false;
        continue;
      }
      if (at(i, j) > result.diameter) {
        result.diameter = at(i, j);
        result.worst_target = index[j];
      }
    }
  return result;
}

}  // namespace dosn::interval::oracle

namespace dosn::metrics::oracle {

Seconds worst_observed_delay(const DaySchedule& reader, Seconds actual) {
  if (actual <= 0 || reader.empty()) return 0;
  // The window of length `actual` ends at the delivery instant, which is an
  // instant the reader is online. Sliding the window end across one of the
  // reader's online intervals, the covered online time is maximal at the
  // interval's right edge, so interval ends are sufficient candidates.
  Seconds worst = 0;
  for (const auto& iv : reader.set().pieces())
    worst = std::max(worst, interval::oracle::online_within_window(
                                reader, iv.end - actual, actual));
  return worst;
}

DelayResult update_propagation_delay(const DaySchedule& owner,
                                     std::span<const DaySchedule> replicas,
                                     Connectivity connectivity) {
  std::vector<DaySchedule> nodes;
  nodes.reserve(replicas.size() + 1);
  nodes.push_back(owner);
  nodes.insert(nodes.end(), replicas.begin(), replicas.end());

  const auto group = interval::oracle::group_delay(
      nodes, connectivity == Connectivity::kConRep
                 ? interval::RendezvousMode::kDirect
                 : interval::RendezvousMode::kRelay);

  DelayResult result;
  result.nodes = group.participants;
  result.fully_connected = group.fully_connected;
  result.actual = group.diameter;
  if (group.participants >= 2)
    result.observed = oracle::worst_observed_delay(nodes[group.worst_target],
                                                   group.diameter);
  return result;
}

}  // namespace dosn::metrics::oracle
