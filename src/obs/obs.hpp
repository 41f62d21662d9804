// Deterministic, thread-safe observability: counters, gauges, histograms
// and span timers in a process-wide registry (DESIGN.md §9).
//
// The study engine's tier-1 guarantee is bit-identical results for a fixed
// seed across platforms and thread counts, so the metrics layer obeys two
// hard rules:
//
//   1. Observability never feeds back into results. Metrics are
//      write-mostly sinks; no simulation or placement code path reads one.
//      Enabling or disabling the subsystem therefore cannot perturb a
//      single output bit (asserted by tests/test_obs.cpp).
//   2. Metric *values* are themselves deterministic wherever the counted
//      quantity is: counters shard per thread (padded atomic slots, relaxed
//      increments) and merge by summation — commutative, so the total does
//      not depend on scheduling — and every exporter walks the registry in
//      sorted-name order. Only span durations (wall time) vary run to run;
//      span structure and call counts do not. The one scheduling-observing
//      metric, the work-stealing runtime's `util.runtime.steals` counter,
//      is the counter analogue of span durations: it measures *how* a run
//      was scheduled, not *what* it computed, and is likewise excluded
//      from byte-determinism expectations (DESIGN.md §12).
//
// Cost model: every hot-path hook first loads one relaxed atomic bool
// (`enabled()`); when observability is off that load-and-branch is the
// entire cost. When on, counters are a relaxed fetch_add on a per-thread
// shard, and the hot loops batch locally and flush once per call. Spans
// take a mutex, so they belong around phases, not per-element work.
//
// Metric naming scheme: `<module>.<name>` (dots separate levels, snake_case
// leaves), e.g. `sim.prefix_evals`, `placement.maxav.lazy_hits`,
// `net.event_queue.high_water`. Counters count events, gauges hold levels
// or high-water marks, histograms bucket integer magnitudes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace dosn::obs {

/// Global on/off switch. Initialized from the DOSN_OBS environment
/// variable ("0" disables; unset or anything else enables); flip at
/// runtime with set_enabled. Reads are a single relaxed atomic load.
bool enabled();
void set_enabled(bool on);

namespace detail {
/// Number of counter shards; slots are assigned to threads round-robin on
/// first use, so any thread count spreads over all shards.
inline constexpr std::size_t kShards = 16;

/// The calling thread's shard slot in [0, kShards): a thread_local index
/// drawn from a process-wide counter — no scheduler-assigned ids involved,
/// and the merged total is slot-assignment independent (sums commute).
std::size_t shard_slot();

struct SpanNode;  // profile-tree node (definition private to obs.cpp)
}  // namespace detail

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Monotone event count, sharded per thread. add() is wait-free when
/// enabled and one load+branch when disabled.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    // protocol: relaxed — per-thread shard tally; pairs with the relaxed
    // merge in value(). Sums commute, so no ordering is needed.
    shards_[detail::shard_slot()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over shards in fixed slot order (commutative, so the value is
  /// independent of which thread incremented which shard).
  std::uint64_t value() const noexcept;

  void reset() noexcept;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  std::string name_;
  std::array<Shard, detail::kShards> shards_{};
};

/// A signed level (queue depth, high-water mark). set/add/record_max are
/// atomic; record_max keeps the largest value seen since reset.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    // protocol: relaxed — last-writer-wins level; orders no other data.
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    if (!enabled()) return;
    // protocol: relaxed — commutative delta; pairs with value()'s
    // relaxed load between phases.
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if it is below (a monotone high-water mark —
  /// the merged result is interleaving-independent).
  void record_max(std::int64_t v) noexcept;

  std::int64_t value() const noexcept {
    // protocol: relaxed — sampling read; see set()/add().
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    // protocol: relaxed — between-phases zeroing.
    value_.store(0, std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<std::int64_t> value_{0};
};

/// Integer-valued histogram over fixed, upper-inclusive bucket bounds:
/// value v lands in the first bucket with v <= bound, values above the
/// last bound in the overflow bucket. Integer sum keeps the aggregate
/// deterministic (no float accumulation-order dependence).
class Histogram {
 public:
  void record(std::int64_t v) noexcept;
  /// Adds samples bucketed elsewhere over the same bounds: one count per
  /// bucket (overflow last; the size is contract-checked) and their sum.
  void add(std::span<const std::uint64_t> buckets, std::int64_t sum);

  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  /// bucket_count(i) for i in [0, bounds().size()]: the last index is the
  /// overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const noexcept;
  std::uint64_t count() const noexcept;
  std::int64_t sum() const noexcept;
  void reset() noexcept;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::span<const std::int64_t> bounds);

  std::string name_;
  std::vector<std::int64_t> bounds_;  // strictly increasing
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

// -------------------------------------------------------------- snapshot

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  std::int64_t sum = 0;
};

struct SpanSample {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  // wall time: the one nondeterministic field
  std::vector<SpanSample> children;  // sorted by name
};

/// A consistent copy of every registered metric, each section sorted by
/// metric name — the deterministic merge order the exporters rely on.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanSample> spans;  // children of the implicit root
};

// -------------------------------------------------------------- registry

/// Process-wide, mutex-protected name -> metric map (std::map: sorted
/// iteration is what makes snapshots and exports deterministic).
/// Registration returns stable references; hot paths register once
/// (function-local static) and keep the reference.
class Registry {
 public:
  /// The process-wide instance. Intentionally leaked so metrics outlive
  /// every other static and thread during shutdown.
  static Registry& global();

  /// Returns the counter named `name`, creating it on first use. Fails a
  /// contract check if the name is already registered as another kind.
  Counter& counter(std::string_view name) DOSN_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) DOSN_EXCLUDES(mutex_);
  /// As above; re-registration must also repeat the same bucket bounds
  /// (which must be strictly increasing and non-empty).
  Histogram& histogram(std::string_view name,
                       std::span<const std::int64_t> bounds)
      DOSN_EXCLUDES(mutex_);

  Snapshot snapshot() const DOSN_EXCLUDES(mutex_, span_mutex_);

  /// Zeroes every metric and clears the span tree. Registrations (and the
  /// references they handed out) stay valid.
  void reset() DOSN_EXCLUDES(mutex_, span_mutex_);

 private:
  friend class ScopedTimer;
  Registry();

  detail::SpanNode* span_enter(std::string_view name)
      DOSN_EXCLUDES(span_mutex_);
  void span_exit(detail::SpanNode* node, std::uint64_t elapsed_ns)
      DOSN_EXCLUDES(span_mutex_);

  // Capability map (DESIGN.md §13): `mutex_` guards the sorted metric
  // registry (name -> Entry); the metric objects it hands out are
  // internally synchronized (sharded/relaxed atomics), so references
  // escape the lock on purpose. `span_mutex_` guards the span profile
  // tree — the root and every node reachable from it. The two are never
  // held together (snapshot/reset take them in sequence, not nested).
  struct Entry;
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> metrics_
      DOSN_GUARDED_BY(mutex_);

  mutable util::Mutex span_mutex_;
  std::unique_ptr<detail::SpanNode> span_root_
      DOSN_GUARDED_BY(span_mutex_) DOSN_PT_GUARDED_BY(span_mutex_);
};

// ----------------------------------------------------------------- spans

/// RAII phase timer. Spans nest per thread: a ScopedTimer opened while
/// another is live on the same thread becomes its child in the profile
/// tree; the first span on any thread (pool workers included) attaches to
/// the root. Each distinct (parent, name) pair is one tree node
/// aggregating calls and total wall time. No-op while disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  detail::SpanNode* node_ = nullptr;  // null: disabled at construction
  detail::SpanNode* parent_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace dosn::obs
