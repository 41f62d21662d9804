// Worst-case propagation delay of a replica group — pure schedule math.
//
// Given the daily schedules of a group of nodes, builds the weighted
// "replica time-connectivity graph" (paper Sec II-C3): the directed edge
// i -> j weighs the worst case, over event times in i's schedule, of the
// wait until the two can next exchange state — directly while both online
// (kDirect / the paper's ConRep) or through an always-online relay
// (kRelay / UnconRep). The group delay is the weighted diameter of the
// all-pairs shortest paths. Every group delay reads its one-hop edges from
// a PairDelayMemo and grows an IncrementalGroupDelay by memo key: the
// study engine's per-user tables, CoreGroup's selection rounds, and the
// schedule-fed group_delay and metrics::DelayPrefixEvaluator, which add
// one memo node per schedule.
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
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "interval/day_schedule.hpp"
#include "util/error.hpp"

namespace dosn::interval {

namespace detail {
/// "No route" in the delay matrices: a quarter of the range, so a min-plus
/// sum of two entries neither overflows nor beats an entry.
inline constexpr Seconds kInf = std::numeric_limits<Seconds>::max() / 4;
}  // namespace detail

enum class RendezvousMode {
  kDirect,  ///< state moves only when both nodes are online simultaneously
  kRelay,   ///< state parks at third-party storage (reader picks it up)
};

/// Worst-case one-hop delay from `source` to `target`; nullopt when the
/// pair can never exchange state. Equals the worst-case wait from
/// `source` until source ∩ target is online under kDirect, and until
/// `target` is online under kRelay (tests/pair_delay_oracle.cpp keeps that
/// event-time form as the oracle), computed in one allocation-free
/// O(|S| + |T|) sweep.
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

/// Diameter of the group's delay graph: an IncrementalGroupDelay over a
/// PairDelayMemo of the whole span. Fewer than two participants yield a
/// zero diameter.
GroupDelayResult group_delay(std::span<const DaySchedule> nodes,
                             RendezvousMode mode);

/// One-hop delays among a set of nodes, each evaluated on first use: the
/// only source of edges for every group delay.
///
/// The study engine evaluates every placement run of one user (the
/// policies and their repetitions, each a different order over the same
/// owner and contacts) against one memo keyed by contact position, so an
/// edge kernel runs at most once per node pair per user however many runs
/// push that pair. CoreGroup keys its owner and candidates the same way
/// for the rounds of one selection; the schedule-fed entry points
/// (group_delay, metrics::DelayPrefixEvaluator) add one node per schedule.
/// Under kDirect the edge is symmetric and one kernel fills both
/// directions; under kRelay the first use of either direction runs the two
/// kernels of the pair. Entries never requested are never evaluated, so a
/// user never runs more kernels than per-run evaluation would.
class PairDelayMemo {
 public:
  /// Empties the memo and sizes it for `nodes` nodes (keys 0..nodes-1,
  /// each empty until set_node) with every edge unevaluated, keeping
  /// buffer capacity.
  void reset(RendezvousMode mode, std::size_t nodes);

  /// Points key `key` at `pieces`, which must stay alive while the memo is
  /// used. Must precede every edge() touching the key.
  void set_node(std::size_t key, std::span<const Interval> pieces);

  /// Appends a node over `pieces` (same lifetime rule as set_node) and
  /// returns its key, the old node count. The edges already evaluated keep
  /// their weights; the new node's are unevaluated.
  std::size_t add_node(std::span<const Interval> pieces);

  RendezvousMode mode() const { return mode_; }
  std::span<const Interval> node(std::size_t key) const { return nodes_[key]; }

  /// pair_delay(node(from), node(to)); nullopt when the pair can never
  /// exchange state. Both nodes must be non-empty under kRelay.
  /// A hit, the common case once a user's first runs have filled the
  /// memo, is one load.
  std::optional<Seconds> edge(std::size_t from, std::size_t to) {
    const std::size_t n = nodes_.size();
    DOSN_ASSERT(from < n && to < n);
    const Seconds w = edges_[from * n + to];
    const Seconds weight = w >= 0 ? w : fill(from, to);
    if (weight == detail::kInf) return std::nullopt;
    return weight;
  }

  /// Edge kernels evaluated since the last reset(): one per requested pair
  /// of distinct keys under kDirect, two under kRelay (one for a key paired
  /// with itself) — at most n(n-1)/2 resp. n(n-1) for n distinct nodes.
  std::uint64_t edge_evaluations() const { return edge_evaluations_; }

 private:
  /// Evaluates the unevaluated edge (from, to), and its reverse when one
  /// kernel gives both; returns its weight, detail::kInf for "never".
  Seconds fill(std::size_t from, std::size_t to);

  RendezvousMode mode_ = RendezvousMode::kDirect;
  std::uint64_t edge_evaluations_ = 0;
  std::vector<std::span<const Interval>> nodes_;
  std::vector<Seconds> edges_;  // row-major from × to; negative: unevaluated
};

/// Incrementally maintained group_delay over a growing node sequence.
///
/// After i push() calls, result() is group_delay over the memo nodes of
/// those i keys: the all-pairs shortest delays equal a batch
/// Floyd–Warshall's (tests/pair_delay_oracle.cpp keeps one as the
/// differential anchor). The study engine evaluates every replication
/// prefix 0..k of a selection, so recomputing the all-pairs matrix per
/// prefix costs O(k^2) edges per prefix — O(k^3) total. Growing the matrix
/// one node at a time reads each edge once: adding node v sets dist(i,v) =
/// min_j dist(i,j) + edge(j,v) and dist(v,j) symmetrically, then relaxes
/// old pairs through v — exact for nonnegative weights, because a shortest
/// path in the new graph either avoids v (old distance) or passes through
/// v once. Every edge comes from a PairDelayMemo, which runs each pair's
/// kernel at most once however many groups read it, and the group copies
/// no pieces. A copy of a group is an independent group over the same memo
/// (CoreGroup tries each candidate on a copy of its picked group).
class IncrementalGroupDelay {
 public:
  explicit IncrementalGroupDelay(RendezvousMode mode) : mode_(mode) {}

  /// Appends node `key` of `memo`, reading its one-hop edges with the
  /// nodes pushed before. An empty node is recorded (it keeps its slot in
  /// the push order) but never participates. Every push of a group reads
  /// one memo, whose mode must be the group's.
  void push(std::size_t key, PairDelayMemo& memo);

  /// Returns to the empty state (as freshly constructed with `mode`) while
  /// keeping buffer capacity, so shard loops can reuse one instance across
  /// many users without reallocating the matrix per user.
  void reset(RendezvousMode mode);

  /// Equivalent of group_delay over every node pushed so far.
  GroupDelayResult result() const;

  /// Memo key of the non-empty node pushed at `slot` (push order, as
  /// GroupDelayResult::worst_target counts).
  std::size_t key(std::size_t slot) const;

 private:
  /// A non-empty pushed node: its slot in push order and its memo key.
  struct Participant {
    std::size_t slot = 0;
    std::size_t key = 0;
  };

  Seconds at(std::size_t i, std::size_t j) const {
    return dist_[i * participants_.size() + j];
  }

  RendezvousMode mode_;
  std::size_t pushed_ = 0;
  std::vector<Participant> participants_;
  std::vector<Seconds> dist_;  // shortest delays, row-major
  // push() scratch, kept as members so steady-state pushes are
  // allocation-free once the buffers have warmed up.
  std::vector<Seconds> edge_to_, edge_from_;
  std::vector<Seconds> dist_to_, dist_from_;
};

}  // namespace dosn::interval
