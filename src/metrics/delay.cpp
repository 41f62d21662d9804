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

// worst_observed_delay over the reader's pieces (a DaySchedule's, or a
// participant's span in IncrementalGroupDelay's flat buffer).
Seconds worst_observed(std::span<const interval::Interval> reader,
                       Seconds actual) {
  if (actual <= 0 || reader.empty()) return 0;
  // The window of length `actual` ends at the delivery instant, which is an
  // instant the reader is online. Sliding the window end across one of the
  // reader's online intervals, the covered online time is maximal at the
  // interval's right edge, so interval ends are sufficient candidates.
  Seconds worst = 0;
  for (const auto& iv : reader)
    worst = std::max(worst, interval::online_within_window(
                                reader, iv.end - actual, actual));
  return worst;
}

}  // namespace

std::optional<Seconds> edge_delay(const DaySchedule& source,
                                  const DaySchedule& target,
                                  Connectivity connectivity) {
  return interval::pair_delay(source, target, mode_of(connectivity));
}

Seconds worst_observed_delay(const DaySchedule& reader, Seconds actual) {
  return worst_observed(reader.set().pieces(), actual);
}

DelayPrefixEvaluator::DelayPrefixEvaluator(const DaySchedule& owner,
                                           Connectivity connectivity)
    : group_(mode_of(connectivity)) {
  push(owner);
}

void DelayPrefixEvaluator::push(const DaySchedule& replica) {
  DOSN_ASSERT(memo_ == nullptr);
  group_.push(replica);
}

void DelayPrefixEvaluator::reset(const DaySchedule& owner,
                                 Connectivity connectivity) {
  memo_ = nullptr;
  group_.reset(mode_of(connectivity));
  group_.push(owner);
}

void DelayPrefixEvaluator::reset(interval::PairDelayMemo& memo,
                                 std::size_t owner_key) {
  memo_ = &memo;
  group_.reset(memo.mode());
  group_.push(owner_key, memo);
}

void DelayPrefixEvaluator::push(std::size_t key) {
  DOSN_ASSERT(memo_ != nullptr);
  group_.push(key, *memo_);
}

DelayResult DelayPrefixEvaluator::result() const {
  const auto group = group_.result();

  DelayResult result;
  result.nodes = group.participants;
  result.fully_connected = group.fully_connected;
  result.actual = group.diameter;
  // A zero diameter leaves worst_target at its default slot, which may be
  // an empty node; the observed delay is zero then anyway.
  if (group.participants >= 2 && group.diameter > 0)
    result.observed =
        worst_observed(group_.pieces(group.worst_target), group.diameter);
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
