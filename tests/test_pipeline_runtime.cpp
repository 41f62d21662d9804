// Unit and stress tests for the work-stealing pipeline runtime
// (util/pipeline_runtime.hpp).
//
// The suite name carries "PipelineRuntime" so the ThreadSanitizer CI
// job's -R filter picks every test up: the slab-cursor claims, the
// per-worker error and steal merge, and the job rendezvous are exactly
// the code whose bugs only surface as data races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/pipeline_runtime.hpp"
#include "util/thread_pool.hpp"

namespace dosn::util {
namespace {

TEST(PipelineRuntime, CoversEveryIndexOnceAcrossThreadsAndGrains) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (const std::size_t grain : {0u, 1u, 3u, 64u}) {
      PipelineRuntime runtime({.threads = threads, .steal_grain = grain});
      for (const std::size_t n : {0u, 1u, 3u, 7u, 64u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        runtime.parallel_for_index(n, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads
                                       << " grain=" << grain << " n=" << n
                                       << " i=" << i;
      }
    }
  }
}

// n < threads is the chunk-metrics edge case: only the non-empty seed
// slabs become blocks, and the thread-pool `chunks` counter must count
// those, not thread_count() (the pre-runtime overcount bug).
TEST(PipelineRuntime, SmallLoopsCountOnlyNonEmptyChunks) {
  obs::set_enabled(true);
  auto& chunks = obs::Registry::global().counter("util.thread_pool.chunks");
  ThreadPool pool(8);
  const std::uint64_t before = chunks.value();
  std::vector<std::atomic<int>> hits(3);
  pool.for_each_index(3, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
  // 3 indices over 8 workers: grain 1, three non-empty blocks.
  EXPECT_EQ(chunks.value() - before, 3u);
}

TEST(PipelineRuntime, ReportsBlockAndStealAccounting) {
  PipelineRuntime runtime({.threads = 4, .steal_grain = 8});
  const auto stats = runtime.parallel_for_index(64, [](std::size_t) {});
  EXPECT_EQ(stats.blocks, 8u);  // 64 indices / grain 8, evenly seeded
  EXPECT_LE(stats.steals, stats.blocks);
}

// Exceptions propagate identically whether the throwing index sits in
// worker 0's seed slab (index 0) or in the last helper's slab (index
// n-1), and the runtime stays usable afterwards.
TEST(PipelineRuntime, PropagatesExceptionsFromAnySeedSlab) {
  PipelineRuntime runtime({.threads = 4, .steal_grain = 1});
  const std::size_t n = 100;
  for (const std::size_t bad : {std::size_t{0}, n - 1}) {
    EXPECT_THROW(runtime.parallel_for_index(
                     n,
                     [&](std::size_t i) {
                       if (i == bad) throw std::runtime_error("boom");
                     }),
                 std::runtime_error)
        << "throwing index " << bad;
    std::atomic<int> count{0};
    runtime.parallel_for_index(10, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 10);
  }
}

// DESIGN.md §12's error contract: a throwing index skips only the rest of
// its own block; every other block still runs, each index exactly once.
TEST(PipelineRuntime, ThrowingBlockSkipsOnlyItsOwnTail) {
  PipelineRuntime runtime({.threads = 4, .steal_grain = 4});
  constexpr std::size_t kN = 64;
  for (const std::size_t bad : {std::size_t{5}, std::size_t{61}}) {
    std::vector<std::atomic<int>> hits(kN);
    EXPECT_THROW(runtime.parallel_for_index(
                     kN,
                     [&](std::size_t i) {
                       ++hits[i];
                       if (i == bad) throw std::runtime_error("boom");
                     }),
                 std::runtime_error)
        << "throwing index " << bad;
    // Blocks are [4k, 4k + 4): only the indices after `bad` in its own
    // block are skipped.
    const std::size_t block_end = (bad / 4 + 1) * 4;
    for (std::size_t i = 0; i < kN; ++i) {
      const int expected = (i > bad && i < block_end) ? 0 : 1;
      ASSERT_EQ(hits[i].load(), expected)
          << "throwing index " << bad << ", i=" << i;
    }
  }
}

// A nested job issued from inside a block inlines serially instead of
// deadlocking the rendezvous; every inner index still runs exactly once.
TEST(PipelineRuntime, NestedJobsInlineSerially) {
  PipelineRuntime runtime({.threads = 4});
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  runtime.parallel_for_index(kOuter, [&](std::size_t o) {
    runtime.parallel_for_index(
        kInner, [&](std::size_t i) { ++hits[o * kInner + i]; });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
}

// Same nesting through the parallel_for_each convenience wrapper on a
// shared pool — the call pattern sim code would hit if an evaluation
// callback itself fans out.
TEST(PipelineRuntime, NestedParallelForEachOnOnePool) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for_each(&pool, kOuter, [&](std::size_t o) {
    parallel_for_each(&pool, kInner,
                      [&](std::size_t i) { ++hits[o * kInner + i]; });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
}

// Stress for the ThreadSanitizer job: many short jobs from a churn of
// callers on one runtime, tiny grain so stealing is constant, shared
// per-index slots plus an atomic reduction, and exception propagation
// under load. A race in the cursor claims, the error and steal merge, or
// the rendezvous surfaces here.
TEST(PipelineRuntime, StressManyShortJobsWithStealing) {
  PipelineRuntime runtime({.threads = 4, .steal_grain = 1});
  std::atomic<long> total{0};
  std::vector<int> slots(64, 0);
  for (int round = 0; round < 200; ++round) {
    runtime.parallel_for_index(slots.size(), [&](std::size_t i) {
      slots[i] = static_cast<int>(i);
      total += static_cast<long>(i);
    });
  }
  EXPECT_EQ(total.load(), 200L * (63 * 64 / 2));
  for (std::size_t i = 0; i < slots.size(); ++i)
    EXPECT_EQ(slots[i], static_cast<int>(i));

  // Exception under churn: still propagates, runtime still drains fully.
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(runtime.parallel_for_index(
                     128,
                     [&](std::size_t i) {
                       if (i == 77) throw std::runtime_error("stress");
                     }),
                 std::runtime_error);
  }
  std::atomic<int> count{0};
  runtime.parallel_for_index(32, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

// Worker 0's slab is slow, so its peers finish their own slabs and claim
// its blocks while it is still working through them: the cross-slab claim
// path under real contention (a TSan target). Whether any claim actually
// lands on a peer depends on the scheduler, so steals are only bounded.
TEST(PipelineRuntime, PeersDrainASlowSlabExactlyOnce) {
  PipelineRuntime runtime({.threads = 4, .steal_grain = 1});
  constexpr std::size_t kN = 64;
  constexpr std::size_t kSlowEnd = kN / 4;  // worker 0's seed slab
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(kN);
    const auto stats = runtime.parallel_for_index(kN, [&](std::size_t i) {
      if (i < kSlowEnd)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      ++hits[i];
    });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << ", i=" << i;
    EXPECT_EQ(stats.blocks, kN);
    EXPECT_LE(stats.steals, stats.blocks);
  }
}

// Deterministic per-index slots under heavy stealing: the steal schedule
// varies run to run, the slot contents must not.
TEST(PipelineRuntime, SlotResultsIndependentOfStealSchedule) {
  const std::size_t n = 513;
  std::vector<double> reference(n);
  for (std::size_t i = 0; i < n; ++i)
    reference[i] = static_cast<double>(i * i) * 0.5;
  for (const std::size_t threads : {1u, 3u, 8u}) {
    PipelineRuntime runtime({.threads = threads, .steal_grain = 2});
    for (int repeat = 0; repeat < 5; ++repeat) {
      std::vector<double> slots(n, -1.0);
      runtime.parallel_for_index(n, [&](std::size_t i) {
        slots[i] = static_cast<double>(i * i) * 0.5;
      });
      ASSERT_EQ(slots, reference)
          << "threads=" << threads << " repeat=" << repeat;
    }
  }
}

}  // namespace
}  // namespace dosn::util
