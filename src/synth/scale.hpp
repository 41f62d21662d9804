// The million-user input path: chunked generation of everything a
// replication sweep needs, without ever materializing the full trace.
//
// A study at scale N needs three things: the social graph (compact CSR),
// one DaySchedule per user (the online-time model), and the activities
// *received by cohort users* (for MostActive ranking and the
// AoD-activity metric — no other sweep component reads the trace).
// build_scale_study_input therefore streams the activity generator
// chunk-by-chunk: each chunk builds its creators' Sporadic schedules
// in place and retains only the cohort-received activities, so peak
// memory is graph + schedules + restricted trace + one chunk, instead of
// the O(mean_activities · N) full trace.
//
// Determinism contract (asserted by tests/test_study_oracle.cpp at small
// N): with the same preset and seed, the dataset equals the materialized
// generate_raw() trace restricted to cohort receivers, and the schedules
// equal SporadicModel::schedules on the materialized dataset under the
// study engine's rep-0 schedule stream — so a Study sweep over this input
// (the precomputed-schedules overload) is bit-identical to a Sporadic
// model sweep on the materialized dataset.
// Folded construction (DESIGN.md §12): every build folds each activity
// chunk inside the generator's sink, on the calling thread, while the
// chunk is still live, and fans the per-creator argsort and DaySchedule
// projection out over a util::PipelineRuntime's workers; the two RNG
// streams and the retained-trace append stay serial in their original
// draw/append order. There is one fold: without a runtime it runs on a
// local one-worker runtime, whose parallel stages run inline. The result
// is bit-identical for every runtime width (the same test file pins it).
#pragma once

#include "interval/day_schedule.hpp"
#include "synth/presets.hpp"
#include "util/pipeline_runtime.hpp"

namespace dosn::synth {

struct ScaleInputConfig {
  /// Typically scale_preset(...) / million_user(); any preset works.
  DatasetPreset preset;
  /// Creators per generation chunk: the memory/throughput knob. Chunks
  /// are folded as they are emitted, so peak fold memory is one chunk of
  /// activities plus its per-activity argsort and session buffers.
  std::size_t chunk_users = 65'536;
  /// Evaluation-cohort degree; 0 picks the most populated degree in
  /// [5, 15] (the paper's methodology around degree 10).
  std::size_t cohort_degree = 0;
  /// Sporadic online-time model session length.
  interval::Seconds session_length = 20 * 60;
};

struct ScaleStudyInput {
  /// Full graph plus the cohort-restricted activity trace.
  trace::Dataset dataset;
  /// Sporadic schedule of every user (cohort evaluation needs contacts'
  /// and creators' schedules, so all N are materialized — ~100 bytes per
  /// active user, the dominant but bounded term of the envelope).
  std::vector<interval::DaySchedule> schedules;
  std::vector<graph::UserId> cohort;
  std::size_t cohort_degree = 0;
  /// Activities generated (pre-restriction); the restricted count is
  /// dataset.trace.size().
  std::uint64_t total_activities = 0;
  /// Name of the online-time model realized in `schedules`.
  std::string model_name;
};

/// Builds the streaming-study input for `config.preset` from one seed,
/// with the per-chunk sort/projection stages fanned out over `runtime`'s
/// workers. A null runtime means one local worker; every configuration is
/// bit-identical.
ScaleStudyInput build_scale_study_input(
    const ScaleInputConfig& config, std::uint64_t seed,
    util::PipelineRuntime* runtime = nullptr);

}  // namespace dosn::synth
