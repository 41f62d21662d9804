#include "synth/scale.hpp"

#include <algorithm>
#include <thread>

#include "graph/degree_stats.hpp"
#include "obs/obs.hpp"
#include "onlinetime/sporadic.hpp"
#include "util/spsc_queue.hpp"

namespace dosn::synth {

using graph::UserId;
using interval::DaySchedule;
using interval::Seconds;
using trace::Activity;

namespace {

// Pipeline metrics (DESIGN.md §12). Chunk counts are deterministic for a
// fixed preset; the queue high-water gauge depends on producer/consumer
// timing (scheduling-dependent, like span durations and steal counts).
struct ScalePipelineMetrics {
  obs::Counter& chunks =
      obs::Registry::global().counter("synth.scale.chunks");
  obs::Gauge& queue_high_water =
      obs::Registry::global().gauge("synth.scale.queue_high_water");
};

ScalePipelineMetrics& pipeline_metrics() {
  static ScalePipelineMetrics m;
  return m;
}

/// Everything build_scale_study_input derives before the activity stream
/// starts, shared by the serial and pipelined folds.
struct FoldState {
  graph::SocialGraph graph;
  std::vector<bool> in_cohort;
  util::Rng sched_rng;
  Seconds session = 0;
  std::vector<DaySchedule> schedules;
  std::vector<Activity> retained;
  std::uint64_t total_activities = 0;

  FoldState(graph::SocialGraph g, const std::vector<UserId>& cohort,
            std::uint64_t seed, Seconds session_length)
      // Session offsets draw from the study engine's rep-0 schedule stream
      // (sim::detail::schedule_stream(seed, 0) = mix64(seed, 0x5ced0000)),
      // so the schedules equal what Study would generate from the
      // materialized dataset.
      : graph(std::move(g)),
        in_cohort(graph.num_users(), false),
        sched_rng(util::mix64(seed, 0x5ced0000)),
        session(session_length),
        schedules(graph.num_users()) {
    for (const UserId u : cohort) in_cohort[u] = true;
  }
};

/// The reference fold: one chunk at a time on the calling thread, in
/// exactly the order generate_activities_chunked emits it.
void fold_chunks_serial(FoldState& state, const ScaleInputConfig& config,
                        util::Rng& gen_rng) {
  std::vector<Activity> mine;                // one creator, sorted
  std::vector<interval::Interval> sessions;  // one creator's sessions

  generate_activities_chunked(
      state.graph, config.preset.activity, gen_rng, config.chunk_users,
      [&](UserId first, UserId end, std::span<const Activity> chunk) {
        state.total_activities += chunk.size();
        pipeline_metrics().chunks.add(1);
        // The chunk is grouped by creator in ascending order; walk the
        // runs (creators without activities have empty runs).
        std::size_t i = 0;
        for (UserId u = first; u < end; ++u) {
          const std::size_t begin = i;
          while (i < chunk.size() && chunk[i].creator == u) ++i;
          if (i == begin) continue;  // no activities: empty schedule

          // SporadicModel draws one session offset per created activity
          // in created_index order, which within one creator is
          // (timestamp, then by_receiver rank) = (timestamp, receiver).
          // Sorting the run by that key reproduces the draw order, so
          // the schedule union is bit-identical to the model's.
          mine.assign(chunk.begin() + static_cast<std::ptrdiff_t>(begin),
                      chunk.begin() + static_cast<std::ptrdiff_t>(i));
          std::sort(mine.begin(), mine.end(),
                    [](const Activity& a, const Activity& b) {
                      if (a.timestamp != b.timestamp)
                        return a.timestamp < b.timestamp;
                      return a.receiver < b.receiver;
                    });
          sessions.clear();
          for (const Activity& a : mine) {
            const auto offset = static_cast<Seconds>(state.sched_rng.below(
                static_cast<std::uint64_t>(state.session)));
            sessions.push_back(
                {a.timestamp - offset, a.timestamp - offset + state.session});
          }
          state.schedules[u] = DaySchedule::project(sessions);

          for (std::size_t j = begin; j < i; ++j)
            if (state.in_cohort[chunk[j].receiver])
              state.retained.push_back(chunk[j]);
        }
        DOSN_ASSERT(i == chunk.size());
      });
}

/// One generator chunk in flight between the producer thread and the
/// folding stages. Buffers cycle through a recycle queue so steady-state
/// pipelining does not allocate.
struct GenChunk {
  UserId first = 0;
  UserId end = 0;
  std::vector<Activity> acts;
};

/// The pipelined fold: the activity generator runs on a producer thread
/// feeding a bounded SPSC queue; each popped chunk is folded in four
/// stages — (A) parallel argsort of every creator run by (timestamp,
/// receiver), (B) serial session-offset draws walking runs in creator
/// order and activities in sorted order (the exact sched_rng draw order
/// of the serial fold), (C) parallel DaySchedule projection per run, and
/// (D) the serial cohort-restricted append in original chunk order. The
/// RNG streams and every order-sensitive append are untouched, so the
/// result is bit-identical to fold_chunks_serial.
void fold_chunks_pipelined(FoldState& state, const ScaleInputConfig& config,
                           util::Rng& gen_rng,
                           util::PipelineRuntime& runtime) {
  const std::size_t queue_capacity =
      std::max<std::size_t>(1, config.pipeline_queue_capacity);
  util::SpscQueue<GenChunk> chunks(queue_capacity);
  util::SpscQueue<GenChunk> recycle(queue_capacity + 1);

  std::exception_ptr producer_error;
  // lint:atomics-ok — the pipeline's one serial producer stage (DESIGN.md
  // §12): joined before return, and every shared handoff goes through the
  // SPSC queues' release/acquire protocol, never ad-hoc shared state.
  std::thread producer([&] {
    try {
      generate_activities_chunked(
          state.graph, config.preset.activity, gen_rng, config.chunk_users,
          [&](UserId first, UserId end, std::span<const Activity> chunk) {
            GenChunk buffer;
            recycle.try_pop(buffer);  // reuse a drained buffer if one is back
            buffer.first = first;
            buffer.end = end;
            buffer.acts.assign(chunk.begin(), chunk.end());
            pipeline_metrics().queue_high_water.record_max(
                static_cast<std::int64_t>(chunks.size() + 1));
            chunks.push(std::move(buffer));
          });
    } catch (...) {
      producer_error = std::current_exception();
    }
    chunks.close();
  });

  struct Run {
    UserId creator = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Run> runs;
  std::vector<std::uint32_t> order;          // per-chunk argsort, flat
  std::vector<interval::Interval> sessions;  // flat; run r owns its slice

  try {
    GenChunk buffer;
    while (chunks.pop(buffer)) {
      const std::vector<Activity>& acts = buffer.acts;
      state.total_activities += acts.size();
      pipeline_metrics().chunks.add(1);

      // Runs of consecutive equal creators (ascending by construction).
      runs.clear();
      for (std::size_t i = 0; i < acts.size();) {
        const UserId u = acts[i].creator;
        const std::size_t begin = i;
        while (i < acts.size() && acts[i].creator == u) ++i;
        runs.push_back({u, begin, i});
      }
      order.resize(acts.size());
      sessions.resize(acts.size());

      // Stage A (parallel): argsort each run by (timestamp, receiver) —
      // the SporadicModel draw order. Ties are fully identical activities
      // (same creator/receiver/timestamp), so any tie order yields the
      // same sessions.
      runtime.parallel_for_index(runs.size(), [&](std::size_t r) {
        const Run& run = runs[r];
        for (std::size_t j = run.begin; j < run.end; ++j)
          order[j] = static_cast<std::uint32_t>(j);
        std::sort(order.begin() + static_cast<std::ptrdiff_t>(run.begin),
                  order.begin() + static_cast<std::ptrdiff_t>(run.end),
                  [&acts](std::uint32_t a, std::uint32_t b) {
                    if (acts[a].timestamp != acts[b].timestamp)
                      return acts[a].timestamp < acts[b].timestamp;
                    return acts[a].receiver < acts[b].receiver;
                  });
      });

      // Stage B (serial): one offset per activity, runs in creator order,
      // sorted order within a run — the serial fold's exact draw order.
      for (const Run& run : runs) {
        for (std::size_t j = run.begin; j < run.end; ++j) {
          const Activity& a = acts[order[j]];
          const auto offset = static_cast<Seconds>(state.sched_rng.below(
              static_cast<std::uint64_t>(state.session)));
          sessions[j] = {a.timestamp - offset,
                         a.timestamp - offset + state.session};
        }
      }

      // Stage C (parallel): project each creator's sessions onto the day.
      runtime.parallel_for_index(runs.size(), [&](std::size_t r) {
        const Run& run = runs[r];
        state.schedules[run.creator] = DaySchedule::project(
            std::span<const interval::Interval>(sessions).subspan(
                run.begin, run.end - run.begin));
      });

      // Stage D (serial): cohort-restricted trace in original chunk order
      // (chunks are creator-grouped, so this equals the serial fold's
      // per-run append sequence).
      for (const Activity& a : acts)
        if (state.in_cohort[a.receiver]) state.retained.push_back(a);

      buffer.acts.clear();
      recycle.try_push(std::move(buffer));
    }
  } catch (...) {
    // Drain so the producer's blocking push can finish, then rethrow.
    GenChunk drained;
    while (chunks.pop(drained)) {
    }
    producer.join();
    throw;
  }
  producer.join();
  if (producer_error) std::rethrow_exception(producer_error);
}

}  // namespace

ScaleStudyInput build_scale_study_input(const ScaleInputConfig& config,
                                        std::uint64_t seed) {
  return build_scale_study_input(config, seed, nullptr);
}

ScaleStudyInput build_scale_study_input(const ScaleInputConfig& config,
                                        std::uint64_t seed,
                                        util::PipelineRuntime* runtime) {
  DOSN_REQUIRE(config.chunk_users >= 1,
               "build_scale_study_input: chunk_users must be >= 1");
  const onlinetime::SporadicModel model(config.session_length);

  ScaleStudyInput out;
  out.model_name = model.name();

  // Graph and activities draw from one sequential stream, exactly as
  // generate_raw() does (graph first, then activities).
  util::Rng gen_rng(seed);
  graph::SocialGraph g =
      generate_power_law_graph(config.preset.graph, config.preset.kind,
                               gen_rng);

  out.cohort_degree = config.cohort_degree != 0
                          ? config.cohort_degree
                          : graph::most_populated_degree(g, 5, 15);
  out.cohort = graph::users_with_degree(g, out.cohort_degree);

  FoldState state(std::move(g), out.cohort, seed, config.session_length);
  if (runtime != nullptr && runtime->thread_count() > 1)
    fold_chunks_pipelined(state, config, gen_rng, *runtime);
  else
    fold_chunks_serial(state, config, gen_rng);

  out.total_activities = state.total_activities;
  out.dataset.name = config.preset.name;
  out.dataset.graph = std::move(state.graph);
  out.dataset.trace = trace::ActivityTrace(out.dataset.graph.num_users(),
                                           std::move(state.retained));
  out.schedules = std::move(state.schedules);
  return out;
}

}  // namespace dosn::synth
