#include "eval_oracle.hpp"

#include <algorithm>
#include <limits>

#include "metrics/availability.hpp"
#include "util/check.hpp"

namespace dosn::sim::oracle {
namespace {

/// The union-based evaluation's buffers: the growing replica-prefix
/// profile, the contacts' demand union, and the activity buckets.
struct UnionScratch {
  interval::IntervalSet profile;
  interval::IntervalSet demand;
  std::vector<interval::Interval> unite_scratch;
  std::vector<std::size_t> expected_at;
  std::vector<std::size_t> unexpected_at;
  metrics::DelayPrefixEvaluator delay{DaySchedule{},
                                      placement::Connectivity::kConRep};
};

void union_prefixes(const trace::Dataset& dataset,
                    std::span<const DaySchedule> schedules, graph::UserId u,
                    std::span<const graph::UserId> selected,
                    placement::Connectivity connectivity, std::size_t k_max,
                    UnionScratch& scratch, std::vector<UserMetrics>& out) {
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
  for (const auto& a : dataset.trace.received_by(u)) {
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
    out.push_back(m);
  }
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
  return m;
}

std::vector<UserMetrics> evaluate_user_prefixes(
    const trace::Dataset& dataset, std::span<const DaySchedule> schedules,
    graph::UserId u, std::span<const graph::UserId> selected,
    placement::Connectivity connectivity, std::size_t k_max) {
  UnionScratch scratch;
  std::vector<UserMetrics> out;
  union_prefixes(dataset, schedules, u, selected, connectivity, k_max,
                 scratch, out);
  return out;
}

}  // namespace dosn::sim::oracle
