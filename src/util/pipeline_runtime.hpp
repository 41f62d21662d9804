// Work-stealing pipeline runtime (DESIGN.md §12).
//
// PipelineRuntime replaces the static fork-join partition that made the
// million-user sweep effectively serial under load imbalance: worker w no
// longer owns exactly [w·n/T, (w+1)·n/T) — that range is only its *seed*
// slab. Each slab is a cursor that hands out steal-granularity blocks in
// ascending order through one fetch_add. A worker drains its own slab,
// then claims the remaining blocks of its peers' slabs in round-robin
// order, so a shard of heavy-degree cohort users delays the loop by at
// most one block instead of a whole static chunk. Every block of a job is
// known when the job starts (no block spawns another), so a cursor per
// slab is all the claiming protocol a job needs.
//
// Determinism contract (unchanged from DESIGN.md §7): stealing reorders
// only *execution*. Every index runs exactly once; callers write results
// into per-index slots and reduce serially in index order, so neither the
// steal schedule nor the thread count can reach an output bit. The
// `util.runtime.steals` counter is the one scheduling-dependent metric
// (like span durations) — it never feeds back into results.
//
// Serial stages (an RNG-consuming generator, an order-sensitive reduce)
// run on the calling thread between parallel_for_index jobs, in their
// original order (see synth::build_scale_study_input, which folds each
// generated chunk in four such alternating stages).
//
// Locking map (DESIGN.md §13): `mutex_` is the rendezvous capability —
// it guards the published job pointer and grain, the generation ticket,
// the running-worker count, the first captured error, the job's steal
// count, and the stop flag. `client_mutex_` serializes external callers
// and is always acquired before `mutex_`. Workers read the job under
// `mutex_` when they observe a new generation, claim blocks lock-free from
// the slab cursors (the runtime's only atomics; see the `protocol:`
// comments in the .cpp), and merge their first error and steal count
// under `mutex_` as they leave the job.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace dosn::util {

/// Worker count used when a runtime/pool is built with `threads == 0`:
/// the DOSN_THREADS environment variable if set to a positive integer,
/// otherwise std::thread::hardware_concurrency() (at least 1).
std::size_t default_thread_count();

struct RuntimeOptions {
  /// Worker threads (the caller participates as worker 0);
  /// 0 = default_thread_count().
  std::size_t threads = 0;
  /// Indices per steal block. 0 = auto: max(1, n / (threads · 8)) per
  /// job — small enough to rebalance stragglers, large enough to amortize
  /// cursor traffic.
  std::size_t steal_grain = 0;
};

class PipelineRuntime {
 public:
  explicit PipelineRuntime(RuntimeOptions options = {});
  ~PipelineRuntime();

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  std::size_t thread_count() const { return threads_; }

  /// Per-job execution stats (also accumulated into obs counters).
  struct JobStats {
    std::size_t blocks = 0;  ///< non-empty steal blocks executed
    std::size_t steals = 0;  ///< blocks claimed from a peer's slab
                             ///< (0 on a balanced run)
  };

  /// Runs fn(i) for every i in [0, n) with work stealing; indices within
  /// one block run in ascending order. Blocks until every index
  /// completed; the first exception thrown by fn is rethrown on the
  /// calling thread after the job drains. Serial (and steal-free) when
  /// thread_count() == 1 or when called from inside one of this
  /// runtime's own workers (nested jobs never deadlock — they inline).
  JobStats parallel_for_index(std::size_t n,
                              const std::function<void(std::size_t)>& fn)
      DOSN_EXCLUDES(client_mutex_, mutex_);

 private:
  using Job = std::function<void(std::size_t)>;

  /// One worker's seed range; `next` is the first unclaimed index.
  /// Cache-line aligned so claims on one slab never contend with another.
  struct alignas(64) Slab {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  /// What one worker's drain leaves to merge under mutex_.
  struct Tally {
    std::exception_ptr error;  ///< first exception of this worker's blocks
    std::size_t steals = 0;    ///< blocks claimed from peers' slabs
  };

  void worker_loop(std::size_t worker) DOSN_EXCLUDES(mutex_);
  Tally drain(std::size_t worker, const Job& job, std::size_t grain) noexcept;
  void merge(const Tally& tally) DOSN_REQUIRES(mutex_);
  std::size_t effective_grain(std::size_t n) const;

  RuntimeOptions options_;
  std::size_t threads_;
  std::vector<Slab> slabs_;
  std::vector<std::thread> helpers_;

  // Serializes external callers: one job owns the workers at a time.
  // Always acquired before mutex_ (the rendezvous lock below).
  Mutex client_mutex_ DOSN_ACQUIRED_BEFORE(mutex_);

  Mutex mutex_;
  CondVar start_cv_;
  CondVar done_cv_;
  const Job* job_ DOSN_GUARDED_BY(mutex_) = nullptr;
  std::size_t grain_ DOSN_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ DOSN_GUARDED_BY(mutex_) = 0;
  std::size_t running_ DOSN_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_error_ DOSN_GUARDED_BY(mutex_);
  std::size_t job_steals_ DOSN_GUARDED_BY(mutex_) = 0;
  bool stop_ DOSN_GUARDED_BY(mutex_) = false;
};

}  // namespace dosn::util
