// Daily-periodic online schedules.
//
// The study projects all user activity onto one 24-hour cycle (the paper
// measures availability "over 24 hours / 1440 minutes"): a DaySchedule is an
// IntervalSet confined to [0, 86400) seconds interpreted circularly — the
// schedule repeats every day. Circular queries ("how long until this node is
// next online, starting at time-of-day t?") are what the update-propagation
// delay metric is built from.
#pragma once

#include <optional>

#include "interval/interval_set.hpp"

namespace dosn::interval {

/// Length of the daily cycle in seconds (24 h).
inline constexpr Seconds kDaySeconds = 86400;

/// Normalizes an absolute timestamp to a time-of-day in [0, kDaySeconds).
constexpr Seconds time_of_day(Seconds t) {
  const Seconds m = t % kDaySeconds;
  return m < 0 ? m + kDaySeconds : m;
}

/// A periodic daily online schedule.
class DaySchedule {
 public:
  /// The empty schedule (never online).
  DaySchedule() = default;

  /// Wraps a set that must already lie within [0, kDaySeconds).
  explicit DaySchedule(IntervalSet within_day);

  /// Projects intervals given in absolute seconds onto the daily cycle,
  /// splitting pieces that cross midnight. An interval of length >= one day
  /// covers the full cycle.
  static DaySchedule project(std::span<const Interval> absolute);

  static DaySchedule always();
  static DaySchedule never() { return DaySchedule{}; }

  const IntervalSet& set() const { return set_; }
  bool empty() const { return set_.empty(); }

  /// Seconds online per day.
  Seconds online_seconds() const { return set_.measure(); }

  /// Fraction of the day online — the paper's availability denominator.
  double coverage() const {
    return static_cast<double>(online_seconds()) /
           static_cast<double>(kDaySeconds);
  }

  /// Is the node online at absolute time t (projected onto the day)?
  bool online_at(Seconds t) const { return set_.contains(time_of_day(t)); }

  /// Earliest instant in [t, horizon) at which the schedule is online, or
  /// nullopt: for t >= 0, the schedule's pieces tiled daily from 0 on.
  std::optional<Seconds> next_online(Seconds t, Seconds horizon) const;

  DaySchedule unite(const DaySchedule& other) const {
    return DaySchedule(set_.unite(other.set_));
  }
  /// In-place union through caller-owned scratch: allocation-free once the
  /// scratch capacity has warmed up. Day-confinement is preserved (the
  /// union of two within-day sets is within-day).
  void unite_with(const DaySchedule& other,
                  std::vector<Interval>* scratch) {
    set_.unite_with(other.set_, scratch);
  }
  DaySchedule intersect(const DaySchedule& other) const {
    return DaySchedule(set_.intersect(other.set_));
  }

  bool intersects(const DaySchedule& other) const {
    return set_.intersects(other.set_);
  }

  /// Daily seconds both schedules are online — the paper's "overlap d".
  Seconds overlap_seconds(const DaySchedule& other) const {
    return set_.intersection_measure(other.set_);
  }

  friend bool operator==(const DaySchedule&, const DaySchedule&) = default;

  std::string to_string() const { return set_.to_string(); }

 private:
  IntervalSet set_;
};

}  // namespace dosn::interval
