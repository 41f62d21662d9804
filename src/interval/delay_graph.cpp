#include "interval/delay_graph.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/error.hpp"

namespace dosn::interval {
namespace {

using detail::kInf;
using Pieces = std::span<const Interval>;

// kDirect edge: the largest circular gap of the rendezvous R = S ∩ T (see
// the header). R's pieces come out of a two-pointer intersect sweep in
// order and are never stored: each new piece closes the gap after the
// previous one, and the last piece's gap wraps to tomorrow's first start.
// nullopt when R is empty.
std::optional<Seconds> direct_delay(Pieces s, Pieces t) {
  Seconds first = -1, prev_end = 0, worst = 0;
  std::size_t i = 0, j = 0;
  while (i < s.size() && j < t.size()) {
    const Seconds lo = std::max(s[i].start, t[j].start);
    const Seconds hi = std::min(s[i].end, t[j].end);
    if (lo < hi) {
      if (first < 0)
        first = lo;
      else
        worst = std::max(worst, lo - prev_end);
      prev_end = hi;
    }
    if (s[i].end <= t[j].end)
      ++i;
    else
      ++j;
  }
  if (first < 0) return std::nullopt;
  worst = std::max(worst, first + kDaySeconds - prev_end);
  DOSN_ASSERT(worst >= 0 && worst < kDaySeconds);
  return worst;
}

// kRelay edge: the worst-case wait from S until T is online, walking its
// two candidate event-time families (source starts, and target ends in the
// closure of S) with forward pointers in O(|S| + |T|). Both spans are
// non-empty.
Seconds relay_delay(Pieces s, Pieces t) {
  Seconds worst = 0;
  // A source start waits 0 inside T (next - start <= 0 then), otherwise
  // until the next T start, wrapping to tomorrow's first.
  std::size_t k = 0;
  for (const Interval& piece : s) {
    while (k < t.size() && t[k].end <= piece.start) ++k;
    const Seconds next =
        k < t.size() ? t[k].start : t.front().start + kDaySeconds;
    worst = std::max(worst, next - piece.start);
  }
  // A target end e in the closure of S waits the circular gap after its
  // piece. e = kDaySeconds is time-of-day 0, in the closure iff S starts at
  // 0 or ends at kDaySeconds; otherwise e is in the closure iff the first S
  // piece ending at or after e starts at or before it.
  std::size_t j = 0;
  for (k = 0; k < t.size(); ++k) {
    const Seconds e = t[k].end;
    bool in_closure = s.front().start == 0 || s.back().end == kDaySeconds;
    if (e < kDaySeconds) {
      while (j < s.size() && s[j].end < e) ++j;
      in_closure = j < s.size() && s[j].start <= e;
    }
    if (!in_closure) continue;
    const Seconds next =
        k + 1 < t.size() ? t[k + 1].start : t.front().start + kDaySeconds;
    worst = std::max(worst, next - e);
  }
  DOSN_ASSERT(worst >= 0 && worst < kDaySeconds);
  return worst;
}

}  // namespace

std::optional<Seconds> pair_delay(const DaySchedule& source,
                                  const DaySchedule& target,
                                  RendezvousMode mode) {
  if (source.empty() || target.empty()) return std::nullopt;
  const Pieces s = source.set().pieces(), t = target.set().pieces();
  if (mode == RendezvousMode::kDirect) return direct_delay(s, t);
  return relay_delay(s, t);
}

void PairDelayMemo::reset(RendezvousMode mode, std::size_t nodes) {
  mode_ = mode;
  edge_evaluations_ = 0;
  nodes_.assign(nodes, Pieces{});
  edges_.assign(nodes * nodes, -1);
}

void PairDelayMemo::set_node(std::size_t key, Pieces pieces) {
  DOSN_ASSERT(key < nodes_.size());
  nodes_[key] = pieces;
}

std::size_t PairDelayMemo::add_node(Pieces pieces) {
  const std::size_t n = nodes_.size();
  nodes_.push_back(pieces);
  // Restride in place: entry (i, j) moves from i*n + j to i*(n+1) + j,
  // never to a lower index, so walking the old entries from the back never
  // overwrites one not yet read. The new row comes from the resize.
  edges_.resize((n + 1) * (n + 1), -1);
  for (std::size_t i = n; i-- > 0;) {
    edges_[i * (n + 1) + n] = -1;
    for (std::size_t j = n; j-- > 0;)
      edges_[i * (n + 1) + j] = edges_[i * n + j];
  }
  return n;
}

Seconds PairDelayMemo::fill(std::size_t from, std::size_t to) {
  const std::size_t n = nodes_.size();
  Seconds& forward = edges_[from * n + to];
  Seconds& backward = edges_[to * n + from];
  const Pieces s = nodes_[from], t = nodes_[to];
  if (mode_ == RendezvousMode::kDirect) {
    forward = backward = direct_delay(s, t).value_or(kInf);
    edge_evaluations_ += 1;
  } else {
    DOSN_ASSERT(!s.empty() && !t.empty());
    forward = relay_delay(s, t);
    if (from != to) {
      backward = relay_delay(t, s);
      edge_evaluations_ += 1;
    }
    edge_evaluations_ += 1;
  }
  return forward;
}

void IncrementalGroupDelay::push(std::size_t key, PairDelayMemo& memo) {
  DOSN_ASSERT(memo.mode() == mode_);
  const std::size_t slot = pushed_++;
  if (memo.node(key).empty()) return;

  // The matrix grows from m to n = m + 1 participants; the old entries
  // keep their stride m until the restride below. It is sized to exactly
  // n² so that a copied group copies only its own entries, while the
  // scratch vectors only grow and need no resize once they have reached
  // the largest group.
  const bool direct = mode_ == RendezvousMode::kDirect;
  const std::size_t m = participants_.size();
  const std::size_t n = m + 1;
  const auto grow = [n](std::vector<Seconds>& v) {
    if (v.size() < n) v.resize(n);
    return v.data();
  };
  dist_.resize(n * n);
  Seconds* const dist = dist_.data();
  Seconds* const edge_to = grow(edge_to_);
  Seconds* const dist_to = grow(dist_to_);

  // One-hop edges between the existing participants and the new node. The
  // memo's one kDirect kernel fills both directions, so only kRelay reads
  // the reverse edges.
  for (std::size_t p = 0; p < m; ++p)
    edge_to[p] = memo.weight(participants_[p].key, key);

  // Shortest i -> new and new -> j. A shortest path touches the new node
  // only at its endpoint (weights are nonnegative), so it decomposes into
  // an old-graph shortest path plus one new edge. No entry exceeds kInf, so
  // a sum with a kInf operand never wins a min and needs no branch. Under
  // kDirect, new -> j is j -> new.
  for (std::size_t i = 0; i < m; ++i) {
    Seconds best = edge_to[i];
    for (std::size_t j = 0; j < m; ++j)
      best = std::min(best, dist[i * m + j] + edge_to[j]);
    dist_to[i] = best;
  }
  Seconds* dist_from = dist_to;
  if (!direct) {
    Seconds* const edge_from = grow(edge_from_);
    dist_from = grow(dist_from_);
    for (std::size_t p = 0; p < m; ++p)
      edge_from[p] = memo.weight(key, participants_[p].key);
    for (std::size_t j = 0; j < m; ++j) {
      Seconds best = edge_from[j];
      for (std::size_t p = 0; p < m; ++p)
        best = std::min(best, edge_from[p] + dist[p * m + j]);
      dist_from[j] = best;
    }
  }

  // Relax old pairs through the new node and restride the matrix in place
  // into n columns. Entry (i, j) moves from i*m + j to i*n + j, never to a
  // lower index, so walking rows and columns from the back never
  // overwrites an entry not yet read; the new row m lies past every old
  // entry. Under kDirect only the upper triangle is computed, and each
  // entry is mirrored into a row already walked.
  //
  // The same walk finds the diameter. It visits the computed entries in
  // reverse row-major order, so taking ties (>=) lands on the
  // row-major-first maximum, as a forward scan taking > would. A kInf
  // entry clears the flag and competes as -1, which never wins; the scan
  // has no data-dependent branch. A zero diameter keeps the default
  // target, as the forward scan does.
  Seconds diameter = 0;
  std::size_t worst = 0;  // participant column of the diameter
  bool connected = true;
  const auto scan = [&](Seconds d, std::size_t column) {
    connected &= d != kInf;
    const Seconds reached = d == kInf ? -1 : d;
    const bool take = reached >= diameter;
    diameter = take ? reached : diameter;
    worst = take ? column : worst;
  };
  if (!direct)
    for (std::size_t j = m; j-- > 0;) scan(dist[m * n + j] = dist_from[j], j);
  for (std::size_t i = m; i-- > 0;) {
    const Seconds to = dist_to[i];
    scan(dist[i * n + m] = to, m);
    if (direct) {
      dist[m * n + i] = to;
      for (std::size_t j = m; --j > i;) {
        const Seconds d = std::min(dist[i * m + j], to + dist_from[j]);
        dist[i * n + j] = dist[j * n + i] = d;
        scan(d, j);
      }
      dist[i * n + i] = 0;
    } else {
      // The diagonal stays 0 (min with a nonnegative sum) and never beats
      // a positive diameter, so it needs no skip.
      for (std::size_t j = m; j-- > 0;) {
        const Seconds d = std::min(dist[i * m + j], to + dist_from[j]);
        dist[i * n + j] = d;
        scan(d, j);
      }
    }
  }
  dist[m * n + m] = 0;
  relaxations_ += direct ? m * n / 2 : m * n;
  participants_.push_back({slot, key});

  result_.diameter = diameter;
  result_.worst_target = diameter > 0 ? participants_[worst].slot : 0;
  result_.fully_connected = connected;
  result_.participants = n;
}

void IncrementalGroupDelay::reset(RendezvousMode mode) {
  mode_ = mode;
  pushed_ = 0;
  relaxations_ = 0;
  result_ = GroupDelayResult{};
  participants_.clear();
  dist_.clear();
}

std::size_t IncrementalGroupDelay::key(std::size_t slot) const {
  const auto it = std::lower_bound(
      participants_.begin(), participants_.end(), slot,
      [](const Participant& p, std::size_t s) { return p.slot < s; });
  DOSN_CHECK(it != participants_.end() && it->slot == slot,
             "IncrementalGroupDelay::key: slot ", slot,
             " is not a participant");
  return it->key;
}

GroupDelayResult group_delay(std::span<const DaySchedule> nodes,
                             RendezvousMode mode) {
  PairDelayMemo memo;
  memo.reset(mode, nodes.size());
  IncrementalGroupDelay group(mode);
  for (std::size_t key = 0; key < nodes.size(); ++key) {
    memo.set_node(key, nodes[key].set().pieces());
    group.push(key, memo);
  }
  return group.result();
}

}  // namespace dosn::interval
