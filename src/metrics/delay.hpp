// Update-propagation delay (Sec II-C3 of the paper).
//
// Replicas of one profile form a weighted "replica time-connectivity
// graph": vertices are the owner plus the replica holders; under ConRep an
// edge joins two vertices whose daily schedules overlap and its weight is
// the worst case, over update times t in the source's online time, of the
// wait until the next instant both are online. That worst case is the
// largest circular gap of the rendezvous S ∩ T, so the edge is symmetric:
// every rendezvous piece end lies in the source's closure (S ∩ T ⊆ S), so
// each gap is attained, and a source start inside a gap waits at most that
// gap. For single daily intervals it is the paper's `24h − overlap`.
// Updates travel along multi-hop shortest paths; the user's Update
// Propagation Delay is the weight of the longest of the all-pairs shortest
// paths (the graph's weighted diameter), i.e. the worst-case time for an
// update to reach every replica.
//
// Under UnconRep replicas exchange updates through third-party storage, so
// every ordered pair (i, j) has a direct edge weighing the worst case, over
// t in OT_i, of the wait until j is next online (upload is immediate — the
// creator is online when updating).
//
// The *observed* delay excludes the reader's offline time: of an actual
// delay D ending at a replica j, only the part of D during which j was
// online is experienced by j. We report the worst case over alignments of
// a window of length D ending at an online instant of j.
#pragma once

#include <optional>
#include <span>

#include "interval/day_schedule.hpp"
#include "interval/delay_graph.hpp"
#include "placement/policy.hpp"

namespace dosn::metrics {

using interval::DaySchedule;
using interval::Seconds;
using placement::Connectivity;

struct DelayResult {
  /// Weighted diameter in seconds: worst-case end-to-end (actual) delay.
  Seconds actual = 0;
  /// Worst-case observed delay (seconds of reader online time) for the
  /// diameter pair.
  Seconds observed = 0;
  /// False when some replica pair cannot exchange updates at all (then the
  /// delays cover only the reachable pairs).
  bool fully_connected = true;
  /// Number of vertices that participated (owner + non-empty replicas).
  std::size_t nodes = 0;

  double actual_hours() const { return static_cast<double>(actual) / 3600.0; }
  double observed_hours() const {
    return static_cast<double>(observed) / 3600.0;
  }
};

/// Update propagation delay for one user's replica configuration. Replicas
/// with empty schedules can never exchange updates and are excluded (they
/// also cannot be selected by ConRep placement). With fewer than two
/// participating vertices the delay is zero. Computed as a
/// DelayPrefixEvaluator over all the replicas.
DelayResult update_propagation_delay(const DaySchedule& owner,
                                     std::span<const DaySchedule> replicas,
                                     Connectivity connectivity);

/// Worst observed (reader-online) delay at `reader` for an actual delay of
/// `actual` seconds: max over windows of that length ending at an online
/// instant of the reader. One O(pieces) sweep over the reader's pieces
/// doubled across midnight; tests/pair_delay_oracle.cpp keeps the
/// quadratic form (one window scan per piece end) as its oracle.
Seconds worst_observed_delay(const DaySchedule& reader, Seconds actual);

/// update_propagation_delay over growing replica prefixes. After pushing
/// replicas r_0..r_{i-1}, result() is the batch definition over the owner
/// and r_0..r_{i-1}: the all-pairs diameter and worst_observed_delay at
/// its target (tests/pair_delay_oracle.cpp keeps that batch form as the
/// differential anchor). Every run reads its edges from a PairDelayMemo,
/// so the whole prefix sequence costs one edge kernel per node pair
/// (unordered under ConRep, ordered under UnconRep) instead of one per
/// pair per prefix. Once warmed, reset() and push() do not allocate.
///
/// A schedule-fed run (the constructor, reset(owner, connectivity) and
/// push(schedule)) adds each schedule to a memo the evaluator owns. That
/// memo points at the schedules' pieces and copies none, so every schedule
/// passed in must stay alive, unmodified, until the next reset() or the
/// last result() of the run. A copy of the evaluator reads its own copy of
/// that memo, which points at the same schedules.
class DelayPrefixEvaluator {
 public:
  DelayPrefixEvaluator(const DaySchedule& owner, Connectivity connectivity);

  /// Appends the next replica of the selection order (schedule runs).
  void push(const DaySchedule& replica);

  /// Restarts the evaluator for a new owner (as freshly constructed) while
  /// keeping buffer capacity — lets one instance serve a whole user shard.
  void reset(const DaySchedule& owner, Connectivity connectivity);

  /// Restarts the evaluator for one run over `memo`'s nodes, the owner at
  /// key `owner_key`: replicas then come by key (push(std::size_t)) and
  /// every edge is read from the memo, which must outlive the run. The
  /// connectivity is the memo's mode.
  void reset(interval::PairDelayMemo& memo, std::size_t owner_key);

  /// Appends the replica at `key` of the run's memo: the one passed to
  /// reset(memo, owner_key), or the owned memo of a schedule run.
  void push(std::size_t key);

  /// Delay metrics for the owner plus every replica pushed so far.
  DelayResult result() const;

  /// Reader pieces result() passed to the observed-delay kernel since the
  /// last reset, summed over calls. A result() whose diameter and reader
  /// match the previous kernel call's reuses its value and passes none.
  std::uint64_t observed_pieces() const { return observed_pieces_; }

  /// Delay-matrix entries the pushes computed since the last reset
  /// (IncrementalGroupDelay::relaxations).
  std::uint64_t relaxations() const { return group_.relaxations(); }

 private:
  interval::PairDelayMemo& memo() { return memo_ ? *memo_ : own_; }
  const interval::PairDelayMemo& memo() const {
    return memo_ ? *memo_ : own_;
  }

  /// Owner at slot 0, then the pushed replicas; the observed delay reads
  /// the worst target's pieces from the run's memo.
  interval::IncrementalGroupDelay group_;
  interval::PairDelayMemo own_;              ///< schedule runs' memo
  interval::PairDelayMemo* memo_ = nullptr;  ///< key runs' memo; null: own_
  mutable std::uint64_t observed_pieces_ = 0;

  /// The run's last observed-delay kernel call: the kernel reads only the
  /// diameter and the reader's pieces, so the same (diameter, reader key)
  /// gives the same delay. Cleared by both resets.
  struct Observed {
    Seconds diameter = 0;
    std::size_t reader = 0;
    Seconds delay = 0;
  };
  mutable std::optional<Observed> observed_;
};

}  // namespace dosn::metrics
