#include "metrics/delay.hpp"

#include <algorithm>

#include "interval/delay_graph.hpp"
#include "util/error.hpp"

namespace dosn::metrics {
namespace {

interval::RendezvousMode mode_of(Connectivity connectivity) {
  return connectivity == Connectivity::kConRep
             ? interval::RendezvousMode::kDirect
             : interval::RendezvousMode::kRelay;
}

// worst_observed_delay over the reader's canonical within-day pieces (a
// DaySchedule's, or a PairDelayMemo node's). The window of length
// `actual` ends at an instant the reader is online, and its online time
// is largest at a piece end e_k, so piece ends suffice.
// Each full day of the window counts the whole schedule; the remainder r
// is the circular window [e_k − r, e_k). Over the pieces doubled across
// midnight (index i < p is piece i shifted back a day, p + i is piece i)
// that window is the index range [j, p + k], head piece j cut at e_k − r,
// and j only moves forward as k grows: one O(p) sweep.
Seconds worst_observed(std::span<const interval::Interval> reader,
                       Seconds actual) {
  if (actual <= 0 || reader.empty()) return 0;
  const std::size_t p = reader.size();
  Seconds online = 0;
  for (const auto& iv : reader) online += iv.length();
  const Seconds full_days = (actual / interval::kDaySeconds) * online;
  const Seconds rem = actual % interval::kDaySeconds;
  if (rem == 0) return full_days;

  const auto doubled = [&](std::size_t i) {
    return i < p ? interval::Interval{reader[i].start - interval::kDaySeconds,
                                      reader[i].end - interval::kDaySeconds}
                 : reader[i - p];
  };
  // `inside` is the length of the doubled pieces [j, p + k]: every shifted
  // piece before the sweep starts.
  Seconds inside = online, worst = 0;
  std::size_t j = 0;
  for (std::size_t k = 0; k < p; ++k) {
    inside += reader[k].length();
    const Seconds from = reader[k].end - rem;
    // Piece p + k ends at e_k > from, so j stops at or before it.
    for (; doubled(j).end <= from; ++j) inside -= doubled(j).length();
    worst = std::max(worst,
                     inside - std::max<Seconds>(0, from - doubled(j).start));
  }
  return full_days + worst;
}

}  // namespace

Seconds worst_observed_delay(const DaySchedule& reader, Seconds actual) {
  return worst_observed(reader.set().pieces(), actual);
}

DelayPrefixEvaluator::DelayPrefixEvaluator(const DaySchedule& owner,
                                           Connectivity connectivity)
    : group_(mode_of(connectivity)) {
  reset(owner, connectivity);
}

void DelayPrefixEvaluator::push(const DaySchedule& replica) {
  DOSN_ASSERT(memo_ == nullptr);
  push(own_.add_node(replica.set().pieces()));
}

void DelayPrefixEvaluator::reset(const DaySchedule& owner,
                                 Connectivity connectivity) {
  own_.reset(mode_of(connectivity), 0);
  memo_ = nullptr;
  observed_pieces_ = 0;
  observed_.reset();
  group_.reset(own_.mode());
  push(own_.add_node(owner.set().pieces()));
}

void DelayPrefixEvaluator::reset(interval::PairDelayMemo& memo,
                                 std::size_t owner_key) {
  memo_ = &memo;
  observed_pieces_ = 0;
  observed_.reset();
  group_.reset(memo.mode());
  push(owner_key);
}

void DelayPrefixEvaluator::push(std::size_t key) { group_.push(key, memo()); }

DelayResult DelayPrefixEvaluator::result() const {
  const auto group = group_.result();

  DelayResult result;
  result.nodes = group.participants;
  result.fully_connected = group.fully_connected;
  result.actual = group.diameter;
  // A zero diameter leaves worst_target at its default slot, which may be
  // an empty node; the observed delay is zero then anyway.
  if (group.participants >= 2 && group.diameter > 0) {
    const std::size_t key = group_.key(group.worst_target);
    if (!observed_ || observed_->diameter != group.diameter ||
        observed_->reader != key) {
      const auto reader = memo().node(key);
      observed_pieces_ += reader.size();
      observed_ =
          Observed{group.diameter, key, worst_observed(reader, group.diameter)};
    }
    result.observed = observed_->delay;
  }
  return result;
}

DelayResult update_propagation_delay(const DaySchedule& owner,
                                     std::span<const DaySchedule> replicas,
                                     Connectivity connectivity) {
  DelayPrefixEvaluator delay(owner, connectivity);
  for (const DaySchedule& replica : replicas) delay.push(replica);
  return delay.result();
}

}  // namespace dosn::metrics
