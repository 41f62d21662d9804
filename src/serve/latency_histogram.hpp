// Deterministic latency histogram for the request-level serving layer.
//
// The serving benchmark reports per-request latency percentiles (p50 /
// p99 / p999) over hundreds of thousands of simulated requests, so it
// cannot keep every sample. LatencyHistogram buckets integer second
// latencies over fixed, upper-inclusive geometric bounds and answers
// quantile queries with a precise, testable contract:
//
//   quantile(q) = the upper bound of the bucket containing the
//                 ceil(q * count)-th smallest recorded value, i.e. the
//                 smallest bucket bound >= the exact order statistic —
//                 or the exact maximum when the order statistic lies in
//                 the overflow bucket.
//
// tests/test_serve.cpp pins this against a sorted-vector oracle. Unlike
// obs::Histogram (sharded atomics, process-wide registry) this class is
// a plain value type: each worker fills its own instance and the serial
// reduction merges them in cohort order, so results are bit-identical
// for every thread count. Sum / count / max are exact (integer math, no
// float accumulation-order dependence).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "interval/interval_set.hpp"

namespace dosn::serve {

using interval::Seconds;

class LatencyHistogram {
 public:
  /// Uses default_bounds().
  LatencyHistogram();
  /// `bounds` must be strictly increasing and non-empty.
  explicit LatencyHistogram(std::vector<Seconds> bounds);

  /// The serving layer's standard bounds: 0, then a ~x1.5 geometric
  /// ladder from 1 s up to past 14 days (the longest horizon a request
  /// can wait within).
  static const std::vector<Seconds>& default_bounds();

  /// Records one latency sample (v >= 0).
  void record(Seconds v);

  /// Adds `other`'s samples (bounds must match).
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  Seconds sum() const { return sum_; }
  /// Largest recorded value (0 when empty).
  Seconds max() const { return max_; }

  /// See the class comment for the exact contract. q in [0, 1]; returns 0
  /// when empty.
  Seconds quantile(double q) const;

  std::span<const Seconds> bounds() const { return bounds_; }
  /// bounds().size() + 1 bucket counts: the last is the overflow bucket.
  std::span<const std::uint64_t> buckets() const { return buckets_; }

  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;

 private:
  std::vector<Seconds> bounds_;            // strictly increasing
  std::vector<std::uint64_t> buckets_;     // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  Seconds sum_ = 0;
  Seconds max_ = 0;
};

}  // namespace dosn::serve
