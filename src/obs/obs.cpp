#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <numeric>

#include "util/check.hpp"

namespace dosn::obs {
namespace {

std::atomic<bool>& enabled_flag() {
  // Initialized once from the environment: DOSN_OBS=0 starts disabled,
  // anything else (or unset) starts enabled.
  static std::atomic<bool> flag = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) — one read under the static
    // initializer's guard, before any instrumented thread can exist.
    const char* env = std::getenv("DOSN_OBS");
    return !(env != nullptr && env[0] == '0' && env[1] == '\0');
  }();
  return flag;
}

std::uint64_t now_ns() {
  // steady_clock, not wall clock: spans measure durations only, and
  // nothing derived from them ever feeds back into simulation results.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// protocol: relaxed — a standalone on/off flag; flips happen between
// phases and order nothing. Hot paths pay one unordered load.
bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  // protocol: relaxed — pairs with the relaxed load in enabled(); no
  // data is published under this flag, so no release is needed.
  enabled_flag().store(on, std::memory_order_relaxed);
}

namespace detail {

std::size_t shard_slot() {
  static std::atomic<std::size_t> next_slot{0};
  // protocol: relaxed — a unique-ticket draw; only atomicity matters
  // (two threads must not share a ticket), no ordering with other data.
  thread_local const std::size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

/// One (parent, name) node of the span profile tree. Mutated only under
/// Registry::span_mutex_; the sorted children map gives exports a
/// deterministic structure regardless of which thread opened what first.
struct SpanNode {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::map<std::string, std::unique_ptr<SpanNode>, std::less<>> children;
};

namespace {
/// The innermost live span of the calling thread (null: next span is a
/// root child). Maintained LIFO by ScopedTimer construction/destruction.
thread_local SpanNode* t_current_span = nullptr;
}  // namespace

}  // namespace detail

// ---------------------------------------------------------------- metrics

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  // protocol: relaxed — pairs with the relaxed shard increments in add();
  // readers merge between phases (quiescent) or accept a momentary sum.
  for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  // protocol: relaxed — between-phases operation; concurrent adds would
  // be lost by design (counters are write-mostly sinks, §9 rule 1).
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

void Gauge::record_max(std::int64_t v) noexcept {
  if (!enabled()) return;
  // protocol: relaxed — monotone high-water CAS loop; the final maximum
  // is interleaving-independent and orders no other data.
  std::int64_t seen = value_.load(std::memory_order_relaxed);
  // protocol: relaxed ^ (the CAS retries until v <= max; commutative)
  while (v > seen &&
         !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::string name, std::span<const std::int64_t> bounds)
    : name_(std::move(name)),
      bounds_(bounds.begin(), bounds.end()),
      buckets_(bounds.size() + 1) {
  DOSN_CHECK(!bounds_.empty(), "obs: histogram '", name_, "' needs bounds");
  DOSN_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
             "obs: histogram '", name_,
             "' bounds must be strictly increasing");
}

void Histogram::record(std::int64_t v) noexcept {
  if (!enabled()) return;
  // Upper-inclusive buckets: the first bound >= v owns the value; values
  // beyond the last bound land in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  // protocol: relaxed — independent commutative tallies (bucket, count,
  // sum); cross-field consistency only read between phases (quiescent).
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);   // protocol: relaxed ^
  sum_.fetch_add(v, std::memory_order_relaxed);     // protocol: relaxed ^
}

void Histogram::add(std::span<const std::uint64_t> buckets,
                    std::int64_t sum) {
  if (!enabled()) return;
  DOSN_CHECK(buckets.size() == buckets_.size(), "obs: histogram '", name_,
             "' has ", buckets_.size(), " buckets, got ", buckets.size());
  // protocol: relaxed — the same commutative tallies as record().
  for (std::size_t i = 0; i < buckets.size(); ++i)
    buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
  count_.fetch_add(std::reduce(buckets.begin(), buckets.end(), 0ULL),
                   std::memory_order_relaxed);  // protocol: relaxed ^
  sum_.fetch_add(sum, std::memory_order_relaxed);  // protocol: relaxed ^
}

std::uint64_t Histogram::bucket_count(std::size_t i) const noexcept {
  // protocol: relaxed — pairs with record()'s relaxed tallies; readers
  // sample between phases.
  return buckets_[i].load(std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);  // protocol: relaxed ^
}

std::int64_t Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);  // protocol: relaxed ^
}

void Histogram::reset() noexcept {
  // protocol: relaxed — between-phases zeroing, same rules as
  // Counter::reset().
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);  // protocol: relaxed ^
  sum_.store(0, std::memory_order_relaxed);    // protocol: relaxed ^
}

// --------------------------------------------------------------- registry

struct Registry::Entry {
  MetricKind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

Registry::Registry() : span_root_(new detail::SpanNode{}) {}

Registry& Registry::global() {
  // Leaked on purpose: instrumented code (thread pool workers, static
  // destructors) may touch metrics arbitrarily late in shutdown.
  static Registry* instance = new Registry;
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->kind = MetricKind::kCounter;
    entry->counter.reset(new Counter(std::string(name)));
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  DOSN_CHECK(it->second->kind == MetricKind::kCounter, "obs: metric '", name,
             "' is already registered as a different kind");
  return *it->second->counter;
}

Gauge& Registry::gauge(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->kind = MetricKind::kGauge;
    entry->gauge.reset(new Gauge(std::string(name)));
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  DOSN_CHECK(it->second->kind == MetricKind::kGauge, "obs: metric '", name,
             "' is already registered as a different kind");
  return *it->second->gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const std::int64_t> bounds) {
  util::MutexLock lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->kind = MetricKind::kHistogram;
    entry->histogram.reset(new Histogram(std::string(name), bounds));
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  DOSN_CHECK(it->second->kind == MetricKind::kHistogram, "obs: metric '",
             name, "' is already registered as a different kind");
  const Histogram& h = *it->second->histogram;
  DOSN_CHECK(std::equal(h.bounds().begin(), h.bounds().end(), bounds.begin(),
                        bounds.end()),
             "obs: histogram '", name,
             "' re-registered with different bounds");
  return *it->second->histogram;
}

namespace {

SpanSample sample_span_tree(const detail::SpanNode& node) {
  SpanSample s;
  s.name = node.name;
  s.calls = node.calls;
  s.total_ns = node.total_ns;
  for (const auto& [name, child] : node.children)
    s.children.push_back(sample_span_tree(*child));
  return s;
}

}  // namespace

Snapshot Registry::snapshot() const {
  Snapshot snap;
  {
    util::MutexLock lock(mutex_);
    // std::map iteration = sorted names: the deterministic export order.
    for (const auto& [name, entry] : metrics_) {
      switch (entry->kind) {
        case MetricKind::kCounter:
          snap.counters.push_back({name, entry->counter->value()});
          break;
        case MetricKind::kGauge:
          snap.gauges.push_back({name, entry->gauge->value()});
          break;
        case MetricKind::kHistogram: {
          const Histogram& h = *entry->histogram;
          HistogramSample hs;
          hs.name = name;
          hs.bounds = h.bounds();
          for (std::size_t i = 0; i <= hs.bounds.size(); ++i)
            hs.buckets.push_back(h.bucket_count(i));
          hs.count = h.count();
          hs.sum = h.sum();
          snap.histograms.push_back(std::move(hs));
          break;
        }
      }
    }
  }
  {
    util::MutexLock lock(span_mutex_);
    for (const auto& [name, child] : span_root_->children)
      snap.spans.push_back(sample_span_tree(*child));
  }
  return snap;
}

void Registry::reset() {
  {
    util::MutexLock lock(mutex_);
    for (const auto& [name, entry] : metrics_) {
      switch (entry->kind) {
        case MetricKind::kCounter: entry->counter->reset(); break;
        case MetricKind::kGauge: entry->gauge->reset(); break;
        case MetricKind::kHistogram: entry->histogram->reset(); break;
      }
    }
  }
  {
    // Precondition: no ScopedTimer is live anywhere (their nodes would
    // dangle). reset() is a between-phases operation, not a hot-path one.
    util::MutexLock lock(span_mutex_);
    span_root_->children.clear();
  }
}

detail::SpanNode* Registry::span_enter(std::string_view name) {
  util::MutexLock lock(span_mutex_);
  detail::SpanNode* parent = detail::t_current_span != nullptr
                                 ? detail::t_current_span
                                 : span_root_.get();
  auto it = parent->children.find(name);
  if (it == parent->children.end()) {
    auto node = std::make_unique<detail::SpanNode>();
    node->name = std::string(name);
    it = parent->children.emplace(std::string(name), std::move(node)).first;
  }
  return it->second.get();
}

void Registry::span_exit(detail::SpanNode* node, std::uint64_t elapsed_ns) {
  util::MutexLock lock(span_mutex_);
  node->calls += 1;
  node->total_ns += elapsed_ns;
}

// ------------------------------------------------------------------ spans

ScopedTimer::ScopedTimer(std::string_view name) {
  if (!enabled()) return;
  node_ = Registry::global().span_enter(name);
  parent_ = detail::t_current_span;
  detail::t_current_span = node_;
  start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (node_ == nullptr) return;
  const std::uint64_t elapsed = now_ns() - start_ns_;
  detail::t_current_span = parent_;
  Registry::global().span_exit(node_, elapsed);
}

}  // namespace dosn::obs
