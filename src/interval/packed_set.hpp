// Immutable canonical interval set stored in 32-bit seconds.
//
// The serving group table keeps every realized surface of every
// referenced profile for a whole run (DESIGN.md §14). Those surfaces are
// absolute seconds inside the serving horizon, which validate(ServingConfig)
// bounds by UINT32_MAX, so a stored piece narrows to two uint32_t: half an
// Interval. Only the stored pieces narrow; query times stay 64-bit Seconds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "interval/interval_set.hpp"

namespace dosn::interval {

/// A canonical set (sorted, disjoint, non-empty, non-adjacent pieces) in
/// one exact-size allocation, with IntervalSet's read-only contract for
/// pieces(), measure() and next_at_or_after().
class PackedSet {
 public:
  /// Half-open [start, end) in absolute seconds.
  struct Piece {
    std::uint32_t start = 0;
    std::uint32_t end = 0;
  };

  PackedSet() = default;

  /// Packs canonical pieces (an IntervalSet's, or SortedRunUnion's
  /// compacted buffer). Throws ContractError when the first start is below
  /// 0 or the last end above UINT32_MAX; the pieces are sorted, so those
  /// two ends bound every piece.
  explicit PackedSet(std::span<const Interval> canonical);

  bool empty() const { return pieces_.empty(); }
  std::size_t piece_count() const { return pieces_.size(); }
  std::span<const Piece> pieces() const { return pieces_; }

  /// Total covered length.
  Seconds measure() const;

  /// Earliest covered instant at or after t; nullopt when none. Binary
  /// search over the pieces.
  std::optional<Seconds> next_at_or_after(Seconds t) const;

 private:
  std::vector<Piece> pieces_;
};

}  // namespace dosn::interval
