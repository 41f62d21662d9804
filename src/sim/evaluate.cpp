#include "sim/evaluate.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace dosn::sim {
namespace {

/// Evaluation-volume metrics (DESIGN.md §9): how many per-user kernels ran
/// and how much work the prefix optimization amortised. Flushed once per
/// call — these functions run inside the parallel cohort loop, so the
/// per-activity work must stay atomic-free.
struct EvalMetrics {
  obs::Counter& full_evals =
      obs::Registry::global().counter("sim.full_evals");
  obs::Counter& prefix_sweeps =
      obs::Registry::global().counter("sim.prefix_sweeps");
  /// Per-k rows produced by prefix sweeps (one sweep yields k_max + 1,
  /// where the naive path would run that many full evaluations).
  obs::Counter& prefix_points =
      obs::Registry::global().counter("sim.prefix_points");
  obs::Counter& activities_classified =
      obs::Registry::global().counter("sim.activities_classified");
  /// Delay-graph edge kernels evaluated by prefix sweeps (one per
  /// unordered participant pair under ConRep, per ordered pair under
  /// UnconRep).
  obs::Counter& delay_edges =
      obs::Registry::global().counter("sim.delay_edges");
};

EvalMetrics& eval_metrics() {
  static EvalMetrics m;
  return m;
}

// Analytic ranges every per-user evaluation must respect: ratios are
// proper fractions, delays non-negative. Violations here mean a metric
// kernel regressed, which would skew every averaged curve downstream.
void check_metric_ranges(const UserMetrics& m) {
  DOSN_DCHECK(m.availability >= 0.0 && m.availability <= 1.0,
              "availability out of [0, 1]: ", m.availability);
  DOSN_DCHECK(m.aod_time >= 0.0 && m.aod_time <= 1.0,
              "aod_time out of [0, 1]: ", m.aod_time);
  DOSN_DCHECK(m.aod_activity >= 0.0 && m.aod_activity <= 1.0,
              "aod_activity out of [0, 1]: ", m.aod_activity);
  DOSN_DCHECK(m.delay_actual_h >= 0.0,
              "negative actual delay: ", m.delay_actual_h);
  DOSN_DCHECK(m.delay_observed_h >= 0.0,
              "negative observed delay: ", m.delay_observed_h);
}

}  // namespace

UserMetrics evaluate_user(const trace::Dataset& dataset,
                          std::span<const DaySchedule> schedules,
                          graph::UserId u,
                          std::span<const graph::UserId> replica_holders,
                          placement::Connectivity connectivity) {
  DOSN_REQUIRE(schedules.size() == dataset.num_users(),
               "evaluate_user: schedule count mismatch");
  const DaySchedule& owner = schedules[u];

  std::vector<DaySchedule> replicas;
  replicas.reserve(replica_holders.size());
  for (graph::UserId host : replica_holders) {
    DOSN_CHECK(host < schedules.size(), "evaluate_user: replica holder ",
               host, " has no schedule (", schedules.size(), " users)");
    replicas.push_back(schedules[host]);
  }

  std::vector<DaySchedule> contacts;
  for (graph::UserId f : dataset.graph.contacts(u))
    contacts.push_back(schedules[f]);

  UserMetrics m;
  const DaySchedule profile = metrics::profile_schedule(owner, replicas);
  m.availability = profile.coverage();
  m.max_availability = metrics::max_achievable_availability(owner, contacts);
  m.aod_time = metrics::aod_time(contacts, profile);

  const auto aod =
      metrics::aod_activity(dataset.trace, u, profile, schedules);
  m.aod_activity = aod.overall;
  m.aod_activity_expected = aod.expected;
  m.aod_activity_unexpected = aod.unexpected;

  const auto delay =
      metrics::update_propagation_delay(owner, replicas, connectivity);
  m.delay_actual_h = delay.actual_hours();
  m.delay_observed_h = delay.observed_hours();
  m.replicas_used = static_cast<double>(replica_holders.size());
  check_metric_ranges(m);
  eval_metrics().full_evals.add(1);
  return m;
}

std::vector<UserMetrics> evaluate_user_prefixes(
    const trace::Dataset& dataset, std::span<const DaySchedule> schedules,
    graph::UserId u, std::span<const graph::UserId> selected,
    placement::Connectivity connectivity, std::size_t k_max) {
  EvalScratch scratch;
  std::vector<UserMetrics> out;
  evaluate_user_prefixes(dataset, schedules, u, selected, connectivity, k_max,
                         scratch, out);
  return out;
}

void evaluate_user_prefixes(const trace::Dataset& dataset,
                            std::span<const DaySchedule> schedules,
                            graph::UserId u,
                            std::span<const graph::UserId> selected,
                            placement::Connectivity connectivity,
                            std::size_t k_max, EvalScratch& scratch,
                            std::vector<UserMetrics>& out) {
  DOSN_REQUIRE(schedules.size() == dataset.num_users(),
               "evaluate_user: schedule count mismatch");
  const DaySchedule& owner = schedules[u];
  const std::size_t take_max = std::min(k_max, selected.size());

  // Every union below fits in `bound` pieces. unite_with swaps its result
  // in, so the demand, the profile and the scratch trade buffers; reserving
  // all three keeps a call that has already seen this bound allocation-free
  // whichever buffer lands where.
  std::size_t bound = owner.set().piece_count();
  for (graph::UserId f : dataset.graph.contacts(u))
    bound += schedules[f].set().piece_count();
  for (std::size_t i = 0; i < take_max; ++i) {
    DOSN_ASSERT(selected[i] < schedules.size());
    bound += schedules[selected[i]].set().piece_count();
  }
  scratch.demand.reserve(bound);
  scratch.profile.reserve(bound);
  scratch.unite_scratch.reserve(bound);

  // Prefix-independent pieces, computed once. The unions are built with
  // unite_with into warmed scratch buffers; the canonical interval
  // representation is unique, so the measures (and every double derived
  // from them) match the allocating unite() path bit for bit.
  scratch.demand.clear();
  for (graph::UserId f : dataset.graph.contacts(u))
    scratch.demand.unite_with(schedules[f].set(), &scratch.unite_scratch);
  const interval::Seconds demand_s = scratch.demand.measure();
  // |demand ∪ owner| = |demand| + |owner \ demand|, exactly.
  const double max_availability =
      static_cast<double>(demand_s +
                          owner.set().subtract_measure(scratch.demand)) /
      static_cast<double>(interval::kDaySeconds);

  // Each received activity is served at prefix k iff the profile union of
  // that prefix covers its time-of-day instant. The profile only grows, so
  // the activity has a smallest serving prefix: 0 when the owner covers the
  // instant, i + 1 when replica i is the first holder that does, never
  // otherwise. Bucket counts by that threshold; running sums then give the
  // served counts of every prefix.
  scratch.expected_at.assign(take_max + 1, 0);
  scratch.unexpected_at.assign(take_max + 1, 0);
  std::size_t expected_total = 0, unexpected_total = 0;
  std::uint64_t activities = 0;
  for (const auto& a : dataset.trace.received_by(u)) {
    ++activities;
    const interval::Seconds tod = interval::time_of_day(a.timestamp);
    DOSN_ASSERT(a.creator < schedules.size());
    const bool is_expected = schedules[a.creator].set().contains(tod);
    (is_expected ? expected_total : unexpected_total) += 1;
    std::size_t first = std::numeric_limits<std::size_t>::max();
    if (owner.set().contains(tod)) {
      first = 0;
    } else {
      for (std::size_t i = 0; i < take_max; ++i) {
        DOSN_ASSERT(selected[i] < schedules.size());
        if (schedules[selected[i]].set().contains(tod)) {
          first = i + 1;
          break;
        }
      }
    }
    if (first <= take_max)
      (is_expected ? scratch.expected_at : scratch.unexpected_at)[first] += 1;
  }

  scratch.delay.reset(owner, connectivity);
  scratch.profile = owner.set();
  std::size_t expected_served = 0, unexpected_served = 0;

  out.clear();
  out.reserve(k_max + 1);
  for (std::size_t k = 0; k <= k_max; ++k) {
    if (k >= 1 && k <= take_max) {
      const DaySchedule& added = schedules[selected[k - 1]];
      scratch.profile.unite_with(added.set(), &scratch.unite_scratch);
      scratch.delay.push(added);
      expected_served += scratch.expected_at[k];
      unexpected_served += scratch.unexpected_at[k];
    } else if (k == 0) {
      expected_served += scratch.expected_at[0];
      unexpected_served += scratch.unexpected_at[0];
    }

    UserMetrics m;
    m.availability = static_cast<double>(scratch.profile.measure()) /
                     static_cast<double>(interval::kDaySeconds);
    m.max_availability = max_availability;
    m.aod_time =
        demand_s == 0
            ? 1.0
            : static_cast<double>(
                  scratch.demand.intersection_measure(scratch.profile)) /
                  static_cast<double>(demand_s);

    const std::size_t total = expected_total + unexpected_total;
    m.aod_activity =
        total > 0 ? static_cast<double>(expected_served + unexpected_served) /
                        static_cast<double>(total)
                  : 1.0;
    m.aod_activity_expected =
        expected_total > 0 ? static_cast<double>(expected_served) /
                                 static_cast<double>(expected_total)
                           : 1.0;
    m.aod_activity_unexpected =
        unexpected_total > 0 ? static_cast<double>(unexpected_served) /
                                   static_cast<double>(unexpected_total)
                             : 1.0;

    const auto d = scratch.delay.result();
    m.delay_actual_h = d.actual_hours();
    m.delay_observed_h = d.observed_hours();
    m.replicas_used = static_cast<double>(std::min(k, selected.size()));
    check_metric_ranges(m);
    // The profile union only grows along the prefix, so availability is
    // non-decreasing in k — the monotonicity the paper's sweeps rely on.
    DOSN_DCHECK(out.empty() || m.availability >= out.back().availability,
                "availability decreased along prefix at k = ", k);
    out.push_back(m);
  }

  EvalMetrics& em = eval_metrics();
  em.prefix_sweeps.add(1);
  em.prefix_points.add(k_max + 1);
  em.activities_classified.add(activities);
  em.delay_edges.add(scratch.delay.edge_evaluations());
}

}  // namespace dosn::sim
