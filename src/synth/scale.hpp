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
// Pipelined construction (DESIGN.md §12): the overload taking a
// util::PipelineRuntime runs the activity generator on a dedicated
// producer thread, hands chunks to the caller through a bounded
// util::SpscQueue, and folds each chunk on the runtime's workers — the
// per-creator argsort and DaySchedule projection parallelize, while the
// two RNG streams and the retained-trace append stay serial in their
// original draw/append order. The pipelined result is bit-identical to
// the serial path (same test as above pins it), so generation stops being
// a serial prefix of a scale study without weakening the contract.
#pragma once

#include "interval/day_schedule.hpp"
#include "synth/presets.hpp"
#include "util/pipeline_runtime.hpp"

namespace dosn::synth {

struct ScaleInputConfig {
  /// Typically scale_preset(...) / million_user(); any preset works.
  DatasetPreset preset;
  /// Creators per generation chunk: the memory/throughput knob.
  std::size_t chunk_users = 65'536;
  /// Evaluation-cohort degree; 0 picks the most populated degree in
  /// [5, 15] (the paper's methodology around degree 10).
  std::size_t cohort_degree = 0;
  /// Sporadic online-time model session length.
  interval::Seconds session_length = 20 * 60;
  /// Generator→folder SPSC queue capacity (chunks in flight) for the
  /// pipelined overload; bounds pipeline memory at roughly
  /// `pipeline_queue_capacity · chunk_users · mean_activities` activities.
  std::size_t pipeline_queue_capacity = 2;
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

/// Builds the streaming-study input for `config.preset` from one seed.
ScaleStudyInput build_scale_study_input(const ScaleInputConfig& config,
                                        std::uint64_t seed);

/// Same result, built as a pipeline on `runtime`: generation overlaps
/// chunk folding, and the per-chunk sort/projection stages fan out over
/// the runtime's workers. A null or single-threaded runtime falls back to
/// the serial path; every configuration is bit-identical.
ScaleStudyInput build_scale_study_input(const ScaleInputConfig& config,
                                        std::uint64_t seed,
                                        util::PipelineRuntime* runtime);

}  // namespace dosn::synth
