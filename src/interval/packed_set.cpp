#include "interval/packed_set.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace dosn::interval {

PackedSet::PackedSet(std::span<const Interval> canonical) {
  if (canonical.empty()) return;
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  DOSN_CHECK(canonical.front().start >= 0 && canonical.back().end <= kMax,
             "PackedSet: pieces [", canonical.front().start, ",",
             canonical.back().end, ") exceed 32-bit seconds");
  pieces_.reserve(canonical.size());
  for (const Interval& iv : canonical) {
    DOSN_DCHECK(iv.start < iv.end &&
                    (pieces_.empty() || pieces_.back().end < iv.start),
                "PackedSet: pieces are not canonical at [", iv.start, ",",
                iv.end, ")");
    pieces_.push_back({static_cast<std::uint32_t>(iv.start),
                       static_cast<std::uint32_t>(iv.end)});
  }
}

Seconds PackedSet::measure() const {
  Seconds total = 0;
  for (const Piece& p : pieces_) total += p.end - p.start;
  return total;
}

std::optional<Seconds> PackedSet::next_at_or_after(Seconds t) const {
  // First piece ending after t.
  const auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), t,
      [](Seconds v, const Piece& p) { return v < Seconds{p.end}; });
  if (it == pieces_.end()) return std::nullopt;
  return std::max(Seconds{it->start}, t);
}

}  // namespace dosn::interval
