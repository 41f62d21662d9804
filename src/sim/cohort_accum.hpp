// Cohort-reduction helpers and RNG stream tags of the study engine
// (sim-internal).
//
// Every sweep reduces per-user rows with CohortAccum in cohort index order
// and averages repetitions with average_runs; that fixed floating-point
// operation order is what makes results bit-identical across thread
// counts and shard sizes. They live in a header of their own so that
// reference implementations outside the engine (the serial test oracle,
// the benchmark's traced replay) reduce exactly the way the engine does.
#pragma once

#include <span>

#include "sim/study.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace dosn::sim::detail {

/// Running averages of every UserMetrics field. Rows must be added in
/// cohort index order: Welford updates are order-dependent, and the fixed
/// order is what makes sweep results thread-count independent.
struct CohortAccum {
  util::RunningStats availability, max_availability, aod_time, aod_activity,
      aod_expected, aod_unexpected, delay_actual, delay_observed, used;

  void add(const UserMetrics& m) {
    availability.add(m.availability);
    max_availability.add(m.max_availability);
    aod_time.add(m.aod_time);
    aod_activity.add(m.aod_activity);
    aod_expected.add(m.aod_activity_expected);
    aod_unexpected.add(m.aod_activity_unexpected);
    delay_actual.add(m.delay_actual_h);
    delay_observed.add(m.delay_observed_h);
    used.add(m.replicas_used);
  }

  CohortMetrics mean() const {
    CohortMetrics c;
    c.availability = availability.mean();
    c.max_availability = max_availability.mean();
    c.aod_time = aod_time.mean();
    c.aod_activity = aod_activity.mean();
    c.aod_activity_expected = aod_expected.mean();
    c.aod_activity_unexpected = aod_unexpected.mean();
    c.delay_actual_h = delay_actual.mean();
    c.delay_observed_h = delay_observed.mean();
    c.replicas_used = used.mean();
    c.cohort_size = availability.count();
    return c;
  }
};

/// Equal-weight average of repetition runs (runs must be non-empty and
/// share one cohort).
inline CohortMetrics average_runs(std::span<const CohortMetrics> runs) {
  DOSN_ASSERT(!runs.empty());
  CohortMetrics out;
  for (const auto& r : runs) {
    out.availability += r.availability;
    out.max_availability += r.max_availability;
    out.aod_time += r.aod_time;
    out.aod_activity += r.aod_activity;
    out.aod_activity_expected += r.aod_activity_expected;
    out.aod_activity_unexpected += r.aod_activity_unexpected;
    out.delay_actual_h += r.delay_actual_h;
    out.delay_observed_h += r.delay_observed_h;
    out.replicas_used += r.replicas_used;
  }
  const double n = static_cast<double>(runs.size());
  out.availability /= n;
  out.max_availability /= n;
  out.aod_time /= n;
  out.aod_activity /= n;
  out.aod_activity_expected /= n;
  out.aod_activity_unexpected /= n;
  out.delay_actual_h /= n;
  out.delay_observed_h /= n;
  out.replicas_used /= n;
  out.cohort_size = runs.front().cohort_size;
  return out;
}

// Sweep tags feeding sweep_stream: distinct constants per sweep so the
// same (x, policy, rep) cell of different sweeps never shares a stream.
constexpr std::uint64_t kReplicationTag = 0x4e97;
constexpr std::uint64_t kSessionTag = 0x3e55;
constexpr std::uint64_t kDegreeTag = 0xde60;
constexpr std::uint64_t kSamplesTag = 0xd158;
constexpr std::uint64_t kFaultTag = 0xfa17;

/// RNG stream id of the schedule realization for repetition `r` — shared
/// by Study::replication_sweep and Study::resilience_sweep (and by
/// synth::build_scale_study_input for its chunk-built schedules), so every
/// path sees the same realizations.
constexpr std::uint64_t schedule_stream(std::uint64_t seed, std::size_t rep) {
  return util::mix64(seed, 0x5ced0000 + rep);
}

}  // namespace dosn::sim::detail
