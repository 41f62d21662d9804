#include "synth/scale.hpp"

#include <algorithm>

#include "graph/degree_stats.hpp"
#include "obs/obs.hpp"
#include "onlinetime/sporadic.hpp"

namespace dosn::synth {

using graph::UserId;
using interval::DaySchedule;
using interval::Seconds;
using trace::Activity;

namespace {

// Fold metric (DESIGN.md §12): the chunk count is deterministic for a
// fixed preset and chunk size.
obs::Counter& chunks_metric() {
  static obs::Counter& chunks =
      obs::Registry::global().counter("synth.scale.chunks");
  return chunks;
}

/// Everything build_scale_study_input derives before the activity stream
/// starts.
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

/// The fold: the activity generator's sink folds each chunk on the calling
/// thread while the chunk span is still valid, in four stages — (A)
/// parallel argsort of every creator run by (timestamp, receiver), (B)
/// serial session-offset draws walking runs in creator order and
/// activities in sorted order (SporadicModel's draw order), (C) parallel
/// DaySchedule projection per run, and (D) the serial cohort-restricted
/// append in original chunk order. The RNG streams and every
/// order-sensitive append are untouched, so the result does not depend on
/// the runtime's width; on one worker, stages A and C run inline.
void fold_chunks(FoldState& state, const ScaleInputConfig& config,
                 util::Rng& gen_rng, util::PipelineRuntime& runtime) {
  struct Run {
    UserId creator = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Run> runs;
  std::vector<std::uint32_t> order;          // per-chunk argsort, flat
  std::vector<interval::Interval> sessions;  // flat; run r owns its slice

  generate_activities_chunked(
      state.graph, config.preset.activity, gen_rng, config.chunk_users,
      [&](UserId, UserId, std::span<const Activity> acts) {
        state.total_activities += acts.size();
        chunks_metric().add(1);

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

        // Stage A (parallel): argsort each run by (timestamp, receiver).
        // SporadicModel draws one session offset per created activity in
        // created_index order, which within one creator is (timestamp,
        // then by_receiver rank). Ties are fully identical activities (same
        // creator/receiver/timestamp), so any tie order yields the same
        // sessions.
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

        // Stage B (serial): one offset per activity, runs in creator
        // order, sorted order within a run — SporadicModel's exact draw
        // order.
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

        // Stage D (serial): cohort-restricted trace in original chunk
        // order, the generator's emission order.
        for (const Activity& a : acts)
          if (state.in_cohort[a.receiver]) state.retained.push_back(a);
      });
}

}  // namespace

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
  if (runtime != nullptr) {
    fold_chunks(state, config, gen_rng, *runtime);
  } else {
    util::PipelineRuntime one_worker({.threads = 1});
    fold_chunks(state, config, gen_rng, one_worker);
  }

  out.total_activities = state.total_activities;
  out.dataset.name = config.preset.name;
  out.dataset.graph = std::move(state.graph);
  out.dataset.trace = trace::ActivityTrace(out.dataset.graph.num_users(),
                                           std::move(state.retained));
  out.schedules = std::move(state.schedules);
  return out;
}

}  // namespace dosn::synth
