// Worst-case propagation delay of a replica group — pure schedule math.
//
// Given the daily schedules of a group of nodes, builds the weighted
// "replica time-connectivity graph" (paper Sec II-C3): the directed edge
// i -> j weighs the worst case, over event times in i's schedule, of the
// wait until the two can next exchange state — directly while both online
// (kDirect / the paper's ConRep) or through an always-online relay
// (kRelay / UnconRep). The group delay is the weighted diameter of the
// all-pairs shortest paths. metrics::update_propagation_delay wraps this;
// delay-aware placement policies consume it directly.
//
// Closed form of the kDirect edge: the largest circular gap of the
// rendezvous R = S ∩ T (for each R piece, the next R start, wrapping to
// tomorrow, minus the piece end), hence symmetric in S and T. Every R piece
// end lies in the closure of S (R ⊆ S), so each gap is attained by an
// update posted as the window closes; a source start inside an R gap waits
// at most that gap. For single daily intervals this is the paper's
// "24h − overlap".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "interval/day_schedule.hpp"

namespace dosn::interval {

enum class RendezvousMode {
  kDirect,  ///< state moves only when both nodes are online simultaneously
  kRelay,   ///< state parks at third-party storage (reader picks it up)
};

/// Worst-case one-hop delay from `source` to `target`; nullopt when the
/// pair can never exchange state. Equals worst_case_wait(source,
/// source ∩ target) under kDirect and worst_case_wait(source, target)
/// under kRelay, computed in one allocation-free O(|S| + |T|) sweep.
std::optional<Seconds> pair_delay(const DaySchedule& source,
                                  const DaySchedule& target,
                                  RendezvousMode mode);

struct GroupDelayResult {
  /// Weighted diameter (seconds) over participating nodes.
  Seconds diameter = 0;
  /// Index (into the input span) of the receiving node of the worst pair.
  std::size_t worst_target = 0;
  /// False when some ordered pair has no route.
  bool fully_connected = true;
  /// Nodes with non-empty schedules (empty ones never exchange anything
  /// and are excluded).
  std::size_t participants = 0;
};

/// Diameter of the group's delay graph: IncrementalGroupDelay over the
/// whole span. Fewer than two participants yield a zero diameter.
GroupDelayResult group_delay(std::span<const DaySchedule> nodes,
                             RendezvousMode mode);

/// Incrementally maintained group_delay over a growing node sequence.
///
/// After i push() calls, result() is group_delay(span of those i nodes,
/// mode): the all-pairs shortest delays equal a batch Floyd–Warshall's
/// (tests/pair_delay_oracle.cpp keeps one as the differential anchor).
/// The study engine evaluates every replication prefix 0..k of a
/// selection, so recomputing the all-pairs matrix per prefix costs O(k^2)
/// pair_delay edge computations per prefix — O(k^3) total, with pair_delay
/// (interval algebra) the expensive part. Growing the matrix one node at
/// a time computes each edge exactly once: adding node v sets dist(i,v) =
/// min_j dist(i,j) + edge(j,v) and dist(v,j) symmetrically, then relaxes
/// old pairs through v — exact for nonnegative weights, because a shortest
/// path in the new graph either avoids v (old distance) or passes through
/// v once. Under kDirect the edge is symmetric, so one kernel evaluation
/// per unordered pair fills both directions; kRelay evaluates each
/// ordered pair.
class IncrementalGroupDelay {
 public:
  explicit IncrementalGroupDelay(RendezvousMode mode) : mode_(mode) {}

  /// Appends the next node. Empty schedules are recorded (they keep their
  /// slot in the input indexing) but never participate.
  void push(const DaySchedule& node);

  /// Returns to the empty state (as freshly constructed with `mode`) while
  /// keeping buffer capacity, so shard loops can reuse one instance across
  /// many users without reallocating the matrix per user.
  void reset(RendezvousMode mode);

  /// Equivalent of group_delay over every node pushed so far.
  GroupDelayResult result() const;

  std::size_t pushed() const { return pushed_; }

  /// Pieces of the non-empty node pushed at `slot` (push order, as
  /// GroupDelayResult::worst_target counts), read from the flat buffer.
  std::span<const Interval> pieces(std::size_t slot) const;

  /// Edge kernel evaluations since construction or the last reset():
  /// n(n-1)/2 for n participants under kDirect, n(n-1) under kRelay.
  std::uint64_t edge_evaluations() const { return edge_evaluations_; }

 private:
  /// A non-empty pushed node: its slot in push order and its pieces'
  /// range in pieces_.
  struct Participant {
    std::size_t slot = 0;
    std::size_t begin = 0, end = 0;
  };

  Seconds at(std::size_t i, std::size_t j) const {
    return dist_[i * participants_.size() + j];
  }

  RendezvousMode mode_;
  std::size_t pushed_ = 0;
  std::uint64_t edge_evaluations_ = 0;
  std::vector<Participant> participants_;
  std::vector<Interval> pieces_;           // participants' pieces, flat
  std::vector<Seconds> dist_;              // shortest delays, row-major
  // push() scratch, kept as members so steady-state pushes are
  // allocation-free once the buffers have warmed up.
  std::vector<Seconds> edge_to_, edge_from_;
  std::vector<Seconds> dist_to_, dist_from_;
};

}  // namespace dosn::interval
