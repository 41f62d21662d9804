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

std::optional<Seconds> DaySchedule::next_online(Seconds t,
                                                Seconds horizon) const {
  if (set_.empty()) return std::nullopt;
  const Seconds day = time_of_day(t);
  Seconds next = t;
  if (!set_.contains(day)) {
    const auto start = set_.next_at_or_after(day);
    // Wrap to tomorrow's first piece when no piece starts later today.
    next += (start ? *start : *set_.first() + kDaySeconds) - day;
  }
  if (next >= horizon) return std::nullopt;
  return next;
}

}  // namespace dosn::interval
