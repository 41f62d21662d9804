#include "interval/day_schedule.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/error.hpp"

namespace dosn::interval {

DaySchedule::DaySchedule(IntervalSet within_day) : set_(std::move(within_day)) {
  if (set_.empty()) return;
  DOSN_CHECK(*set_.first() >= 0 && *set_.last_end() <= kDaySeconds,
             "DaySchedule: set must lie within [0, ", kDaySeconds,
             "), got ", set_.to_string());
  DOSN_DCHECK(set_.is_canonical(),
              "DaySchedule: set not canonical: ", set_.to_string());
}

DaySchedule DaySchedule::project(std::span<const Interval> absolute) {
  IntervalSet day;
  for (const auto& iv : absolute) {
    DOSN_REQUIRE(iv.start < iv.end, "DaySchedule::project: empty interval");
    if (iv.length() >= kDaySeconds) return always();
    const Seconds s = time_of_day(iv.start);
    const Seconds e = s + iv.length();
    if (e <= kDaySeconds) {
      day.add(s, e);
    } else {
      day.add(s, kDaySeconds);
      day.add(0, e - kDaySeconds);
    }
    if (day.measure() == kDaySeconds) return always();
  }
  return DaySchedule(std::move(day));
}

DaySchedule DaySchedule::always() {
  return DaySchedule(IntervalSet::single(0, kDaySeconds));
}

std::optional<Seconds> DaySchedule::wait_until_online(Seconds t) const {
  if (set_.empty()) return std::nullopt;
  t = time_of_day(t);
  if (set_.contains(t)) return 0;
  if (auto next = set_.next_at_or_after(t)) return *next - t;
  return *set_.first() + kDaySeconds - t;  // wrap to tomorrow's first piece
}

namespace {

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
    const auto wait = target.wait_until_online(t);
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

}  // namespace dosn::interval
