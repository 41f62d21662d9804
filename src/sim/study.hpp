// The experiment driver reproducing the paper's evaluation (Sec IV–V).
//
// A Study wraps one dataset and runs the sweeps behind every figure:
//
//   * replication_sweep  — metrics vs replication degree k = 0..k_max for
//     every policy, one online-time model (or precomputed schedules),
//     ConRep or UnconRep (Figs 3–7, 10, 11);
//   * session_length_sweep — metrics vs Sporadic session length at a fixed
//     k (Fig 8);
//   * user_degree_sweep — metrics vs user degree 1..d_max with k = degree
//     (Fig 9);
//   * resilience_sweep — metrics vs fault intensity at a fixed k: the
//     hardening ablation, measuring how placements chosen under ideal
//     assumptions degrade when nodes deviate from their schedules;
//   * cohort_samples — per-user rows at a fixed k (distribution view).
//
// Methodology follows the paper: the evaluation cohort is the users of one
// particular degree (degree 10 — the best-populated); experiments whose
// components draw randomness (Random placement, RandomLength model) are
// repeated and averaged (default 5 repetitions); deterministic experiments
// run once. Everything derives from one seed.
//
// Each sweep is a short description run by one private driver: its header
// (model name, x label, xs), whether its schedules differ per repetition,
// its stream tag, and one cell per x (replication_sweep has one cell whose
// rows are the k axis) giving the cohort, each repetition's placement and
// evaluation schedules, and rows first_k..k_max. The driver checks the
// options, takes the pool, builds each policy once and runs every cell
// through one user-major core: the cohort is walked in windows of
// consecutive cohort indices, split into parallel tasks on a
// util::ThreadPool, and each user's table (sim::UserTable) serves every
// (policy, repetition) run of a cell that shares its schedules. Every (run,
// user) pair draws from its own RNG stream derived with util::mix64, and
// each window's rows are reduced serially into per-run accumulators in
// cohort index order, so for a fixed seed the output is bit-identical for
// every thread count and shard size, including the serial threads = 1
// reference. The core scales to million-user inputs built by
// synth::build_scale_study_input (the precomputed-schedules overload).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/fault.hpp"
#include "onlinetime/model.hpp"
#include "sim/evaluate.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace dosn::sim {

/// Cohort averages of UserMetrics.
struct CohortMetrics {
  double availability = 0.0;
  double max_availability = 0.0;
  double aod_time = 0.0;
  double aod_activity = 0.0;
  double aod_activity_expected = 0.0;
  double aod_activity_unexpected = 0.0;
  double delay_actual_h = 0.0;
  double delay_observed_h = 0.0;
  double replicas_used = 0.0;
  std::size_t cohort_size = 0;

  /// Exact (bit-level) comparison — the differential tests assert the
  /// sharded engine reproduces the serial reference bit for bit.
  friend bool operator==(const CohortMetrics&, const CohortMetrics&) = default;
};

/// Which scalar a figure plots.
enum class Metric {
  kAvailability,
  kAodTime,
  kAodActivity,
  kAodActivityExpected,
  kAodActivityUnexpected,
  kDelayActualH,
  kDelayObservedH,
  kReplicasUsed,
};

std::string to_string(Metric metric);
double metric_value(const CohortMetrics& m, Metric metric);

/// Collision-free RNG stream id for one sweep cell. `tag` identifies the
/// sweep, `x` the sweep position (session-length index, user degree, ...),
/// `policy` the policy slot and `rep` the repetition. The nested mix64
/// guarantees distinct cells get uncorrelated streams — unlike additive
/// schemes (e.g. `x*7919 + policy*131 + rep`) where distinct cells can
/// alias (x=0,policy=1,rep=0 vs x=0,policy=0,rep=131).
constexpr std::uint64_t sweep_stream(std::uint64_t seed, std::uint64_t tag,
                                     std::uint64_t x, std::uint64_t policy,
                                     std::uint64_t rep) {
  return util::mix64(util::mix64(seed, tag),
                     util::mix64(util::mix64(x, policy), rep));
}

/// One policy's curve across the sweep's x axis.
struct PolicyCurve {
  std::string policy_name;
  placement::PolicyKind policy = placement::PolicyKind::kMaxAv;
  std::vector<CohortMetrics> points;  // parallel to SweepResult::xs
};

struct SweepResult {
  std::string dataset_name;
  std::string model_name;
  std::string connectivity_name;
  std::string x_label;
  std::vector<double> xs;
  std::vector<PolicyCurve> policies;

  /// Extracts plottable series (one per policy) for a metric.
  std::vector<util::Series> series(Metric metric) const;
};

/// Sweep configuration (namespace-scope so it can serve as a default
/// argument; also available as Study::Options).
struct StudyOptions {
  /// Cohort: users with exactly this degree (the paper uses 10).
  std::size_t cohort_degree = 10;
  /// Replication degrees 0..k_max (defaults to cohort_degree).
  std::size_t k_max = 10;
  /// Repetitions for randomized components.
  std::size_t repetitions = 5;
  /// Policies to evaluate, in plot order.
  std::vector<placement::PolicyKind> policies = {
      placement::PolicyKind::kMaxAv, placement::PolicyKind::kMostActive,
      placement::PolicyKind::kRandom};
  placement::PolicyParams policy_params;
  /// Worker threads for cohort evaluation. 0 = the DOSN_THREADS
  /// environment variable, falling back to the hardware concurrency.
  /// Results are bit-identical for every value; 1 runs fully serial.
  std::size_t threads = 0;
  /// Cohort users per shard (>= 1), capped at ceil(cohort / workers) so
  /// small cohorts still fan out. Any value produces bit-identical
  /// results; larger shards amortize scratch warm-up, smaller shards
  /// balance load better.
  std::size_t shard_size = 1024;
  /// Evaluate only the first `cohort_limit` cohort users (in user-id
  /// order); 0 = the whole cohort. A deterministic cap for the scale
  /// bench, where a million-user population yields tens of thousands of
  /// degree-d cohort users.
  std::size_t cohort_limit = 0;
  /// Shared worker pool. When set, sweeps run on this pool (its
  /// work-stealing runtime stays warm across generation and every sweep —
  /// no teardown/re-fork between pipeline phases) and `threads` is
  /// ignored; when null, each sweep constructs its own pool from
  /// `threads`. Results are bit-identical either way.
  util::ThreadPool* pool = nullptr;
};

class Study {
 public:
  using Options = StudyOptions;

  Study(const trace::Dataset& dataset, std::uint64_t seed);

  const trace::Dataset& dataset() const { return dataset_; }

  /// Users with degree exactly `degree`.
  std::vector<graph::UserId> cohort(std::size_t degree) const;

  /// Figs 3–7, 10, 11: metrics vs replication degree.
  SweepResult replication_sweep(onlinetime::ModelKind model,
                                const onlinetime::ModelParams& params,
                                placement::Connectivity connectivity,
                                const Options& options = Options{}) const;

  /// Same sweep with an arbitrary model instance (e.g. a PrecomputedModel
  /// wrapping real session logs).
  SweepResult replication_sweep(const onlinetime::OnlineTimeModel& model,
                                placement::Connectivity connectivity,
                                const Options& options = Options{}) const;

  /// Same sweep over precomputed deterministic schedules (one realization
  /// for every user of the dataset), e.g. the chunk-built schedules of
  /// synth::build_scale_study_input. Equivalent to a deterministic model
  /// that returns `schedules`: policy repetitions still follow
  /// options.repetitions for randomized policies.
  SweepResult replication_sweep(std::span<const DaySchedule> schedules,
                                std::string_view model_name,
                                placement::Connectivity connectivity,
                                const Options& options = Options{}) const;

  /// Fig 8: metrics vs Sporadic session length at fixed k.
  SweepResult session_length_sweep(
      std::span<const interval::Seconds> session_lengths, std::size_t k,
      placement::Connectivity connectivity, const Options& options = Options{}) const;

  /// Resilience ablation: metrics vs fault intensity at a fixed
  /// replication degree k. Placements are selected on the *ideal*
  /// schedules (the operator plans against advertised behavior), then
  /// evaluated on schedules degraded by `scaled(base_plan, intensity)` —
  /// session no-shows, truncations, and node outage windows. Within one
  /// repetition the fault realizations are nested across intensities
  /// (scaled() preserves the plan seed), so per-user online time — and
  /// hence cohort availability — degrades *exactly* monotonically, not
  /// merely in expectation. The intensity-0 column equals the
  /// replication_sweep point at k (run with k_max = k) for deterministic
  /// policies. Intensities must lie in [0, 1].
  SweepResult resilience_sweep(onlinetime::ModelKind model,
                               const onlinetime::ModelParams& params,
                               placement::Connectivity connectivity,
                               const net::FaultPlan& base_plan,
                               std::span<const double> intensities,
                               std::size_t k,
                               const Options& options = Options{}) const;

  /// Distribution view behind the cohort means: per-user metric samples
  /// for one policy at a fixed replication degree (single realization of
  /// the model and placement). Feeds percentile / CDF reporting.
  std::vector<UserMetrics> cohort_samples(
      onlinetime::ModelKind model, const onlinetime::ModelParams& params,
      placement::Connectivity connectivity, placement::PolicyKind policy,
      std::size_t k, const Options& options = Options{}) const;

  /// Fig 9: metrics vs user degree (1..max_degree) with k = degree.
  SweepResult user_degree_sweep(std::size_t max_degree,
                                onlinetime::ModelKind model,
                                const onlinetime::ModelParams& params,
                                placement::Connectivity connectivity,
                                const Options& options = Options{}) const;

  SweepResult user_degree_sweep(std::size_t max_degree,
                                const onlinetime::OnlineTimeModel& model,
                                placement::Connectivity connectivity,
                                const Options& options = Options{}) const;

 private:
  /// One placement run of a sweep cell: a policy and the stream its users
  /// draw from (user u draws from mix64(stream_seed, u)).
  struct CohortRun {
    const placement::ReplicaPolicy* policy = nullptr;
    std::uint64_t stream_seed = 0;
  };

  struct SweepSpec;  ///< a sweep's description (defined in study.cpp)

  /// The replication sweep over one schedule realization per model
  /// repetition (a single entry when the model is deterministic).
  SweepResult replication_sweep_over(
      std::span<const std::span<const DaySchedule>> realizations,
      bool model_randomized, std::string_view model_name,
      placement::Connectivity connectivity, const Options& options) const;

  /// The one sweep driver (see the file comment). `samples`, when set,
  /// receives every row that evaluate_cohort computes.
  SweepResult run_sweep(const SweepSpec& spec,
                        placement::Connectivity connectivity,
                        const Options& options,
                        std::vector<UserMetrics>* samples = nullptr) const;

  /// The engine's one per-user loop. The cohort is walked user by user in
  /// windows of shard × workers consecutive users, each window split into
  /// tasks on `pool`. For each user every run's selection is placed
  /// against `placement_schedules` (at most k_max replicas), then one
  /// UserTable over `evaluation_schedules` evaluates rows first_k..k_max
  /// of every run. After each window its rows are reduced in cohort order
  /// into per-run accumulators, so memory stays bounded by the window.
  /// Returns each run's cohort means for k = first_k..k_max; `samples`,
  /// when set, receives every row, by user in cohort order, then by run,
  /// then by k.
  std::vector<std::vector<CohortMetrics>> evaluate_cohort(
      std::span<const DaySchedule> placement_schedules,
      std::span<const DaySchedule> evaluation_schedules,
      std::span<const graph::UserId> cohort_users,
      std::span<const CohortRun> runs, placement::Connectivity connectivity,
      std::size_t first_k, std::size_t k_max, std::size_t shard_size,
      util::ThreadPool& pool,
      std::vector<UserMetrics>* samples = nullptr) const;

  const trace::Dataset& dataset_;
  std::uint64_t seed_;
};

/// Order-sensitive FNV-1a checksum over every numeric field of a sweep
/// (xs, all CohortMetrics doubles bit-patterns, cohort sizes and curve
/// names). Two sweeps compare equal iff their checksums match in practice;
/// the scale bench uses it to assert cross-thread/cross-shard identity.
std::uint64_t sweep_checksum(const SweepResult& result);

}  // namespace dosn::sim
