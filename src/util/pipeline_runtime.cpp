#include "util/pipeline_runtime.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/obs.hpp"

namespace dosn::util {
namespace {

// Runtime metrics (DESIGN.md §12). jobs/blocks/indices are deterministic
// for a fixed seed and configuration; steals depend on the scheduler (like
// span durations) and are reported for tuning, never compared bit-wise.
struct RuntimeMetrics {
  obs::Counter& jobs = obs::Registry::global().counter("util.runtime.jobs");
  obs::Counter& nested_jobs =
      obs::Registry::global().counter("util.runtime.nested_jobs");
  obs::Counter& blocks =
      obs::Registry::global().counter("util.runtime.blocks");
  obs::Counter& steals =
      obs::Registry::global().counter("util.runtime.steals");
};

RuntimeMetrics& metrics() {
  static RuntimeMetrics m;
  return m;
}

/// The runtime a thread is currently executing a block for, if any.
/// Nested parallel_for_index calls from job code inline serially instead
/// of re-entering the rendezvous (which would deadlock worker 0 against
/// its own helpers).
thread_local PipelineRuntime* tl_active_runtime = nullptr;

}  // namespace

std::size_t default_thread_count() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — env read at pool/runtime
  // construction, before its workers exist; nothing calls setenv.
  if (const char* env = std::getenv("DOSN_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1)
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

PipelineRuntime::PipelineRuntime(RuntimeOptions options)
    : options_(options),
      threads_(options.threads > 0 ? options.threads
                                   : default_thread_count()),
      slabs_(threads_) {
  helpers_.reserve(threads_ - 1);
  for (std::size_t w = 1; w < threads_; ++w)
    helpers_.emplace_back([this, w] { worker_loop(w); });
}

PipelineRuntime::~PipelineRuntime() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& helper : helpers_) helper.join();
}

std::size_t PipelineRuntime::effective_grain(std::size_t n) const {
  if (options_.steal_grain > 0) return options_.steal_grain;
  return std::max<std::size_t>(1, n / (threads_ * 8));
}

PipelineRuntime::Tally PipelineRuntime::drain(std::size_t worker,
                                               const Job& job,
                                               std::size_t grain) noexcept {
  PipelineRuntime* const prev = tl_active_runtime;
  tl_active_runtime = this;
  Tally tally;
  // Own slab first (offset 0), then each peer's in round-robin order. A
  // slab is finished once a claim lands at or past its end, so the worker
  // leaves after one failed claim per slab: every block is then claimed,
  // and the ones still running elsewhere finish before their workers
  // check in at the running_ rendezvous.
  for (std::size_t offset = 0; offset < threads_; ++offset) {
    Slab& slab = slabs_[(worker + offset) % threads_];
    for (;;) {
      // protocol: relaxed — the RMW alone makes each claim unique (one
      // modification order per cursor); block effects are published by
      // the running_ rendezvous under mutex_, not by this cursor.
      const std::size_t begin =
          slab.next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= slab.end) break;
      if (offset != 0) ++tally.steals;
      const std::size_t end = std::min(slab.end, begin + grain);
      try {
        for (std::size_t i = begin; i < end; ++i) job(i);
      } catch (...) {
        // Skip the rest of this block only; other blocks still run.
        if (!tally.error) tally.error = std::current_exception();
      }
    }
  }
  tl_active_runtime = prev;
  return tally;
}

void PipelineRuntime::merge(const Tally& tally) {
  if (tally.error && !first_error_) first_error_ = tally.error;
  job_steals_ += tally.steals;
}

void PipelineRuntime::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const Job* job = nullptr;
    std::size_t grain = 0;
    {
      MutexLock lock(mutex_);
      // Plain while loop, not a wait predicate: the guarded reads stay
      // inside this annotated scope where the analysis can see the lock.
      while (!stop_ && generation_ == seen) start_cv_.wait(lock);
      if (stop_) return;
      seen = generation_;
      job = job_;  // published under mutex_ by parallel_for_index
      grain = grain_;
    }
    const Tally tally = drain(worker, *job, grain);
    {
      MutexLock lock(mutex_);
      merge(tally);
      --running_;
      if (running_ == 0) done_cv_.notify_all();
    }
  }
}

PipelineRuntime::JobStats PipelineRuntime::parallel_for_index(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return {};
  if (threads_ == 1 || tl_active_runtime == this) {
    // Single-threaded runtime, or a nested job issued from inside one of
    // this runtime's blocks: inline serially (same index order, no
    // rendezvous). Nested jobs count separately so schedulers misusing
    // nesting show up in reports.
    if (tl_active_runtime == this) metrics().nested_jobs.add(1);
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return {.blocks = 1, .steals = 0};
  }

  MutexLock client(client_mutex_);
  // Seed each worker's slab with its static range [w·n/T, (w+1)·n/T):
  // a steal-free run executes exactly the old static partition (same
  // locality), and stealing only redistributes stragglers.
  const std::size_t grain = effective_grain(n);
  std::size_t total_blocks = 0;
  for (std::size_t w = 0; w < threads_; ++w) {
    const std::size_t begin = w * n / threads_;
    slabs_[w].end = (w + 1) * n / threads_;
    // protocol: relaxed — workers are quiescent here; the release
    // publication is the mutex_-guarded generation bump below, whose
    // unlock orders this store before any worker's first claim.
    slabs_[w].next.store(begin, std::memory_order_relaxed);
    total_blocks += (slabs_[w].end - begin + grain - 1) / grain;
  }
  {
    MutexLock lock(mutex_);
    job_ = &fn;
    grain_ = grain;
    running_ = threads_ - 1;
    first_error_ = nullptr;
    job_steals_ = 0;
    ++generation_;
  }
  start_cv_.notify_all();
  const Tally mine = drain(0, fn, grain);  // the calling thread is worker 0

  JobStats stats;
  stats.blocks = total_blocks;
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    merge(mine);
    while (running_ != 0) done_cv_.wait(lock);
    job_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
    stats.steals = job_steals_;
  }
  metrics().jobs.add(1);
  metrics().blocks.add(stats.blocks);
  metrics().steals.add(stats.steals);

  if (error) std::rethrow_exception(error);
  return stats;
}

}  // namespace dosn::util
