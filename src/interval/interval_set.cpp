#include "interval/interval_set.hpp"

#include <algorithm>
#include <sstream>

#include "interval/packed_set.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/merge_runs.hpp"

namespace dosn::interval {

IntervalSet::IntervalSet(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {
  for (const auto& iv : intervals_)
    DOSN_REQUIRE(iv.start < iv.end, "IntervalSet: interval must be non-empty");
  normalize();
  DOSN_DCHECK(is_canonical(), "normalize postcondition: ", to_string());
}

IntervalSet IntervalSet::single(Seconds start, Seconds end) {
  DOSN_REQUIRE(start < end, "IntervalSet::single: start must precede end");
  IntervalSet s;
  s.intervals_.push_back({start, end});
  return s;
}

void IntervalSet::add(Seconds start, Seconds end) {
  DOSN_REQUIRE(start < end, "IntervalSet::add: start must precede end");
  // Find all existing intervals touching [start, end] and merge them in.
  auto lo = std::lower_bound(
      intervals_.begin(), intervals_.end(), start,
      [](const Interval& iv, Seconds s) { return iv.end < s; });
  auto hi = lo;
  while (hi != intervals_.end() && hi->start <= end) {
    start = std::min(start, hi->start);
    end = std::max(end, hi->end);
    ++hi;
  }
  lo = intervals_.erase(lo, hi);
  intervals_.insert(lo, {start, end});
  DOSN_DCHECK(is_canonical(), "add postcondition: ", to_string());
}

Seconds IntervalSet::measure() const {
  Seconds total = 0;
  for (const auto& iv : intervals_) total += iv.length();
  return total;
}

bool IntervalSet::contains(Seconds t) const {
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](Seconds v, const Interval& iv) { return v < iv.start; });
  if (it == intervals_.begin()) return false;
  --it;
  return it->contains(t);
}

bool IntervalSet::intersects(const IntervalSet& other) const {
  auto a = intervals_.begin();
  auto b = other.intervals_.begin();
  while (a != intervals_.end() && b != other.intervals_.end()) {
    if (a->overlaps(*b)) return true;
    if (a->end <= b->end)
      ++a;
    else
      ++b;
  }
  return false;
}

std::optional<Seconds> IntervalSet::first() const {
  if (intervals_.empty()) return std::nullopt;
  return intervals_.front().start;
}

std::optional<Seconds> IntervalSet::last_end() const {
  if (intervals_.empty()) return std::nullopt;
  return intervals_.back().end;
}

std::optional<Seconds> IntervalSet::next_at_or_after(Seconds t) const {
  for (const auto& iv : intervals_) {
    if (iv.end <= t) continue;
    return std::max(iv.start, t);
  }
  return std::nullopt;
}

IntervalSet IntervalSet::unite(const IntervalSet& other) const {
  std::vector<Interval> merged;
  merged.reserve(intervals_.size() + other.intervals_.size());
  merged.insert(merged.end(), intervals_.begin(), intervals_.end());
  merged.insert(merged.end(), other.intervals_.begin(),
                other.intervals_.end());
  IntervalSet out;
  out.intervals_ = std::move(merged);
  out.normalize();
  DOSN_DCHECK(out.is_canonical(), "unite postcondition: ", out.to_string());
  return out;
}

void IntervalSet::unite_with(const IntervalSet& other,
                             std::vector<Interval>* scratch) {
  DOSN_REQUIRE(scratch != nullptr, "unite_with: scratch must be non-null");
  if (other.intervals_.empty()) return;
  if (intervals_.empty()) {
    intervals_ = other.intervals_;
    return;
  }
  // Two-pointer merge of two canonical lists; output is built canonical
  // directly (sorted inputs, touching pieces merged), so the result is the
  // unique canonical form — identical to unite().
  scratch->clear();
  auto a = intervals_.begin();
  auto b = other.intervals_.begin();
  auto emit = [&scratch](const Interval& iv) {
    if (!scratch->empty() && iv.start <= scratch->back().end)
      scratch->back().end = std::max(scratch->back().end, iv.end);
    else
      scratch->push_back(iv);
  };
  while (a != intervals_.end() || b != other.intervals_.end()) {
    if (b == other.intervals_.end() ||
        (a != intervals_.end() && a->start <= b->start))
      emit(*a++);
    else
      emit(*b++);
  }
  intervals_.swap(*scratch);
  DOSN_DCHECK(is_canonical(), "unite_with postcondition: ", to_string());
}

Seconds IntervalSet::subtract_measure(const IntervalSet& other) const {
  // Same sweep as subtract(), summing piece lengths instead of storing them.
  Seconds total = 0;
  auto b = other.intervals_.begin();
  for (const Interval& cur : intervals_) {
    while (b != other.intervals_.end() && b->end <= cur.start) ++b;
    auto bb = b;
    Seconds pos = cur.start;
    while (bb != other.intervals_.end() && bb->start < cur.end) {
      if (bb->start > pos) total += bb->start - pos;
      pos = std::max(pos, bb->end);
      ++bb;
    }
    if (pos < cur.end) total += cur.end - pos;
  }
  return total;
}

IntervalSet IntervalSet::intersect(const IntervalSet& other) const {
  IntervalSet out;
  auto a = intervals_.begin();
  auto b = other.intervals_.begin();
  while (a != intervals_.end() && b != other.intervals_.end()) {
    const Seconds lo = std::max(a->start, b->start);
    const Seconds hi = std::min(a->end, b->end);
    if (lo < hi) out.intervals_.push_back({lo, hi});
    if (a->end <= b->end)
      ++a;
    else
      ++b;
  }
  DOSN_DCHECK(out.is_canonical(),
              "intersect postcondition: ", out.to_string());
  return out;  // already canonical: inputs were sorted/disjoint
}

IntervalSet IntervalSet::subtract(const IntervalSet& other) const {
  IntervalSet out;
  auto b = other.intervals_.begin();
  for (Interval cur : intervals_) {
    while (b != other.intervals_.end() && b->end <= cur.start) ++b;
    auto bb = b;
    Seconds pos = cur.start;
    while (bb != other.intervals_.end() && bb->start < cur.end) {
      if (bb->start > pos) out.intervals_.push_back({pos, bb->start});
      pos = std::max(pos, bb->end);
      ++bb;
    }
    if (pos < cur.end) out.intervals_.push_back({pos, cur.end});
  }
  DOSN_DCHECK(out.is_canonical(), "subtract postcondition: ", out.to_string());
  return out;
}

Seconds IntervalSet::intersection_measure(const IntervalSet& other) const {
  Seconds total = 0;
  auto a = intervals_.begin();
  auto b = other.intervals_.begin();
  while (a != intervals_.end() && b != other.intervals_.end()) {
    const Seconds lo = std::max(a->start, b->start);
    const Seconds hi = std::min(a->end, b->end);
    if (lo < hi) total += hi - lo;
    if (a->end <= b->end)
      ++a;
    else
      ++b;
  }
  return total;
}

IntervalSet IntervalSet::clip(Seconds lo, Seconds hi) const {
  IntervalSet out;
  if (lo >= hi) return out;
  for (const auto& iv : intervals_) {
    const Seconds a = std::max(iv.start, lo);
    const Seconds b = std::min(iv.end, hi);
    if (a < b) out.intervals_.push_back({a, b});
  }
  return out;
}

bool IntervalSet::is_canonical() const {
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    if (intervals_[i].start >= intervals_[i].end) return false;  // empty piece
    // Strict gap: touching pieces ([a,b) [b,c)) must have been merged.
    if (i > 0 && intervals_[i - 1].end >= intervals_[i].start) return false;
  }
  return true;
}

std::string IntervalSet::to_string() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    if (i) os << ' ';
    os << '[' << intervals_[i].start << ',' << intervals_[i].end << ')';
  }
  os << '}';
  return os.str();
}

void IntervalSet::normalize() {
  if (intervals_.empty()) return;
  std::sort(intervals_.begin(), intervals_.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  // Merge in place, then release the slack: a set normalized from many
  // overlapping pieces (a group union) is kept at its canonical size.
  std::size_t last = 0;
  for (std::size_t i = 1; i < intervals_.size(); ++i) {
    if (intervals_[i].start <= intervals_[last].end)
      intervals_[last].end = std::max(intervals_[last].end, intervals_[i].end);
    else
      intervals_[++last] = intervals_[i];
  }
  intervals_.resize(last + 1);
  intervals_.shrink_to_fit();
}

std::span<const Interval> SortedRunUnion::merge_and_compact() {
  DOSN_CHECK(bounds_.back() <= pieces_.size(),
             "SortedRunUnion: pieces removed after their run was closed");
  if (bounds_.back() < pieces_.size()) end_run();
  for (std::size_t r = 0; r + 1 < bounds_.size(); ++r)
    for (std::size_t i = bounds_[r]; i < bounds_[r + 1]; ++i) {
      DOSN_CHECK(pieces_[i].start < pieces_[i].end,
                 "SortedRunUnion: empty piece [", pieces_[i].start, ",",
                 pieces_[i].end, ") in run ", r);
      DOSN_CHECK(i == bounds_[r] || pieces_[i - 1].start <= pieces_[i].start,
                 "SortedRunUnion: run ", r, " not sorted at piece ", i);
    }
  util::merge_runs(pieces_, bounds_, scratch_,
                   [](const Interval& a, const Interval& b) {
                     return a.start < b.start;
                   });
  // The same merge-and-compact pass as normalize(); the caller copies the
  // result out at exact size, so the buffer keeps its capacity.
  if (pieces_.empty()) return {};
  std::size_t last = 0;
  for (std::size_t i = 1; i < pieces_.size(); ++i) {
    if (pieces_[i].start <= pieces_[last].end)
      pieces_[last].end = std::max(pieces_[last].end, pieces_[i].end);
    else
      pieces_[++last] = pieces_[i];
  }
  return std::span<const Interval>(pieces_).first(last + 1);
}

void SortedRunUnion::reset() {
  pieces_.clear();
  bounds_.resize(1);
}

IntervalSet SortedRunUnion::build() {
  const auto canonical = merge_and_compact();
  IntervalSet out;
  out.intervals_.assign(canonical.begin(), canonical.end());
  reset();
  DOSN_DCHECK(out.is_canonical(), "SortedRunUnion postcondition: ",
              out.to_string());
  return out;
}

PackedSet SortedRunUnion::build_packed() {
  PackedSet out(merge_and_compact());
  reset();
  return out;
}

IntervalSet operator|(const IntervalSet& a, const IntervalSet& b) {
  return a.unite(b);
}
IntervalSet operator&(const IntervalSet& a, const IntervalSet& b) {
  return a.intersect(b);
}
IntervalSet operator-(const IntervalSet& a, const IntervalSet& b) {
  return a.subtract(b);
}

}  // namespace dosn::interval
