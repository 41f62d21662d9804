// Property-based suites over randomized inputs: invariants that must hold
// for every schedule configuration, placement, and profile history.
#include <gtest/gtest.h>

#include "core/profile.hpp"
#include "metrics/availability.hpp"
#include "metrics/delay.hpp"
#include "net/replica_sim.hpp"
#include "pair_delay_oracle.hpp"
#include "placement/policy.hpp"
#include "sim/evaluate.hpp"
#include "trace/dataset.hpp"
#include "util/rng.hpp"

namespace dosn {
namespace {

using interval::DaySchedule;
using interval::IntervalSet;
using interval::kDaySeconds;
using interval::Seconds;
using placement::Connectivity;
using placement::PolicyKind;

DaySchedule random_schedule(util::Rng& rng, int max_pieces = 4) {
  IntervalSet s;
  const auto pieces = rng.below(static_cast<std::uint64_t>(max_pieces) + 1);
  for (std::uint64_t i = 0; i < pieces; ++i) {
    const Seconds start = rng.range(0, kDaySeconds - 7200);
    const Seconds len = rng.range(600, 4 * 3600);
    s.add(start, std::min(start + len, kDaySeconds));
  }
  return DaySchedule(std::move(s));
}

class ScheduleProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleProperties, AvailabilityBoundsAndMonotonicity) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const auto owner = random_schedule(rng);
    std::vector<DaySchedule> replicas;
    double prev = metrics::availability(owner, replicas);
    EXPECT_DOUBLE_EQ(prev, owner.coverage());
    for (int i = 0; i < 5; ++i) {
      replicas.push_back(random_schedule(rng));
      const double now = metrics::availability(owner, replicas);
      EXPECT_GE(now + 1e-12, prev);   // adding replicas never hurts
      EXPECT_LE(now, 1.0 + 1e-12);    // bounded
      prev = now;
    }
  }
}

TEST_P(ScheduleProperties, AodTimeBoundedByAvailabilityLogic) {
  util::Rng rng(GetParam() + 1000);
  for (int round = 0; round < 40; ++round) {
    std::vector<DaySchedule> friends;
    for (int i = 0; i < 4; ++i) friends.push_back(random_schedule(rng));
    const auto profile = random_schedule(rng);
    const double aod = metrics::aod_time(friends, profile);
    EXPECT_GE(aod, 0.0);
    EXPECT_LE(aod, 1.0 + 1e-12);
    // Covering profile with the friends' union always yields 1.
    DaySchedule demand;
    for (const auto& f : friends) demand = demand.unite(f);
    EXPECT_DOUBLE_EQ(metrics::aod_time(friends, demand), 1.0);
  }
}

TEST_P(ScheduleProperties, WorstCaseWaitBounds) {
  util::Rng rng(GetParam() + 2000);
  for (int round = 0; round < 60; ++round) {
    const auto a = random_schedule(rng);
    const auto b = random_schedule(rng);
    if (a.empty() || b.empty()) {
      EXPECT_EQ(interval::oracle::worst_case_wait(a, b), std::nullopt);
      continue;
    }
    const auto w = interval::oracle::worst_case_wait(a, b);
    ASSERT_TRUE(w.has_value());
    EXPECT_GE(w->wait, 0);
    EXPECT_LT(w->wait, kDaySeconds);  // target is daily periodic
  }
}

TEST_P(ScheduleProperties, DelayMetricInvariants) {
  util::Rng rng(GetParam() + 3000);
  for (int round = 0; round < 25; ++round) {
    const auto owner = random_schedule(rng);
    std::vector<DaySchedule> replicas;
    for (int i = 0; i < 4; ++i) replicas.push_back(random_schedule(rng));

    const auto con =
        metrics::update_propagation_delay(owner, replicas,
                                          Connectivity::kConRep);
    const auto uncon =
        metrics::update_propagation_delay(owner, replicas,
                                          Connectivity::kUnconRep);
    EXPECT_GE(con.actual, 0);
    EXPECT_GE(uncon.actual, 0);
    EXPECT_LE(con.observed, con.actual);
    EXPECT_LE(uncon.observed, uncon.actual);
    // A relay never makes the worst case worse.
    if (con.fully_connected) {
      EXPECT_LE(uncon.actual, con.actual);
    }
    // n nodes, periodic daily schedules: diameter < n days.
    EXPECT_LT(con.actual,
              static_cast<Seconds>(con.nodes + 1) * kDaySeconds);
  }
}

TEST_P(ScheduleProperties, PlacementInvariants) {
  util::Rng rng(GetParam() + 4000);
  for (int round = 0; round < 15; ++round) {
    const std::size_t n = 6;
    std::vector<DaySchedule> schedules;
    for (std::size_t i = 0; i < n; ++i)
      schedules.push_back(random_schedule(rng));
    std::vector<graph::UserId> candidates;
    for (graph::UserId c = 1; c < n; ++c) candidates.push_back(c);
    trace::ActivityTrace empty_trace(n, {});

    for (PolicyKind kind :
         {PolicyKind::kMaxAv, PolicyKind::kMostActive, PolicyKind::kRandom}) {
      for (Connectivity conn :
           {Connectivity::kConRep, Connectivity::kUnconRep}) {
        placement::PlacementContext ctx;
        ctx.user = 0;
        ctx.candidates = candidates;
        ctx.schedules = schedules;
        ctx.trace = &empty_trace;
        ctx.connectivity = conn;
        ctx.max_replicas = 3;
        const auto policy = placement::make_policy(kind);
        const auto r = policy->select(ctx, rng);

        // Never exceeds the budget, never repeats, only candidates.
        EXPECT_LE(r.size(), 3u);
        std::vector<graph::UserId> sorted(r);
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
        for (auto host : r) {
          EXPECT_GE(host, 1u);
          EXPECT_LT(host, n);
        }
        // ConRep: incremental time-connectivity.
        if (conn == Connectivity::kConRep) {
          DaySchedule grown = schedules[0];
          for (auto host : r) {
            if (!grown.empty()) {
              EXPECT_TRUE(schedules[host].intersects(grown));
            }
            grown = grown.unite(schedules[host]);
          }
        }
      }
    }
  }
}

TEST_P(ScheduleProperties, EventSimConservation) {
  util::Rng rng(GetParam() + 5000);
  for (int round = 0; round < 8; ++round) {
    std::vector<DaySchedule> nodes;
    for (int i = 0; i < 4; ++i) nodes.push_back(random_schedule(rng));
    bool any_online = false;
    for (const auto& s : nodes) any_online |= !s.empty();
    if (!any_online) continue;

    util::Rng urng = rng.fork();
    const auto updates = net::updates_within_schedules(nodes, 30, 5, urng);
    net::ReplicaSimConfig cfg;
    cfg.horizon_days = 12;
    const auto report = net::simulate_replica_group(nodes, updates, cfg);

    // Union coverage matches the empirical any-online fraction exactly
    // (schedules are periodic and the sim executes them verbatim).
    DaySchedule un;
    for (const auto& s : nodes) un = un.unite(s);
    EXPECT_NEAR(report.empirical_availability, un.coverage(), 1e-9);

    // Arrival ordering: nobody receives an update before it is created,
    // and the origin holds it from creation.
    for (const auto& d : report.deliveries) {
      ASSERT_TRUE(d.arrival[d.origin].has_value());
      EXPECT_EQ(*d.arrival[d.origin], d.creation);
      for (const auto& a : d.arrival)
        if (a) {
          EXPECT_GE(*a, d.creation);
        }
    }
  }
}

TEST_P(ScheduleProperties, ProfileMergeConvergesAnyOrder) {
  util::Rng rng(GetParam() + 6000);
  for (int round = 0; round < 10; ++round) {
    // Three authors append random histories; replicas merge in random
    // orders and must converge to identical state.
    std::vector<core::Profile> authors;
    for (graph::UserId a = 0; a < 3; ++a) {
      core::Profile p(0);
      const auto count = 1 + rng.below(5);
      for (std::uint64_t i = 0; i < count; ++i)
        p.append(a, rng.range(0, 100000), "post");
      authors.push_back(std::move(p));
    }

    core::Profile r1(0), r2(0);
    std::vector<std::size_t> order{0, 1, 2};
    for (std::size_t i : order) r1.merge(authors[i]);
    rng.shuffle(order);
    for (std::size_t i : order) r2.merge(authors[i]);
    // Merge repeated history fragments too (idempotence under re-sync).
    r2.merge(authors[static_cast<std::size_t>(rng.below(3))]);

    EXPECT_EQ(r1.posts(), r2.posts());
    EXPECT_EQ(r1.version(), r2.version());
    EXPECT_EQ(r1.version().compare(r2.version()), core::Ordering::kEqual);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleProperties,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

/// A small random dataset (graph + activity trace) for policy-level
/// metamorphic invariants: the per-user evaluation kernel and every
/// placement policy must satisfy them for any input.
trace::Dataset random_dataset(util::Rng& rng, std::size_t n) {
  graph::SocialGraphBuilder builder(graph::GraphKind::kUndirected, n);
  for (std::size_t e = 0; e < 2 * n; ++e) {
    const auto a = static_cast<graph::UserId>(rng.below(n));
    const auto b = static_cast<graph::UserId>(rng.below(n));
    if (a != b) builder.add_edge(a, b);
  }
  std::vector<trace::Activity> activities;
  for (std::size_t i = 0; i < 5 * n; ++i) {
    trace::Activity a;
    a.creator = static_cast<graph::UserId>(rng.below(n));
    a.receiver = static_cast<graph::UserId>(rng.below(n));
    a.timestamp = static_cast<Seconds>(rng.below(14 * kDaySeconds));
    activities.push_back(a);
  }
  trace::Dataset d;
  d.name = "property";
  d.graph = std::move(builder).build();
  d.trace = trace::ActivityTrace(n, std::move(activities));
  return d;
}

std::vector<DaySchedule> random_schedules(util::Rng& rng, std::size_t n) {
  std::vector<DaySchedule> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(random_schedule(rng));
  return out;
}

placement::PlacementContext make_context(const trace::Dataset& dataset,
                                         std::span<const DaySchedule> schedules,
                                         graph::UserId u,
                                         Connectivity connectivity,
                                         std::size_t max_replicas) {
  placement::PlacementContext ctx;
  ctx.user = u;
  ctx.candidates = dataset.graph.contacts(u);
  ctx.schedules = schedules;
  ctx.trace = &dataset.trace;
  ctx.connectivity = connectivity;
  ctx.max_replicas = max_replicas;
  return ctx;
}

class PolicySweepProperties : public ::testing::TestWithParam<std::uint64_t> {
};

// Growing the replication degree along any single selection's prefix never
// decreases availability — for every policy and connectivity mode. (This is
// the sweep semantics of the engine: one selection at k_max, prefixes
// 0..k_max; independent re-selections per k carry no such guarantee.)
TEST_P(PolicySweepProperties, GrowingPrefixNeverDecreasesAvailability) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    const std::size_t n = 12;
    const auto dataset = random_dataset(rng, n);
    const auto schedules = random_schedules(rng, n);
    for (PolicyKind kind :
         {PolicyKind::kMaxAv, PolicyKind::kMostActive, PolicyKind::kRandom}) {
      for (Connectivity conn :
           {Connectivity::kConRep, Connectivity::kUnconRep}) {
        const auto policy = placement::make_policy(kind);
        for (graph::UserId u = 0; u < n; ++u) {
          const auto candidates = dataset.graph.contacts(u);
          if (candidates.empty()) continue;
          const auto ctx =
              make_context(dataset, schedules, u, conn, candidates.size());
          const auto selected = policy->select(ctx, rng);
          const auto rows = sim::evaluate_user_prefixes(
              dataset, schedules, u, selected, conn, ctx.max_replicas);
          ASSERT_EQ(rows.size(), ctx.max_replicas + 1);
          EXPECT_DOUBLE_EQ(rows[0].availability, schedules[u].coverage());
          for (std::size_t k = 1; k < rows.size(); ++k) {
            EXPECT_GE(rows[k].availability, rows[k - 1].availability);
            EXPECT_LE(rows[k].availability, 1.0);
            EXPECT_GE(rows[k].aod_time, rows[k - 1].aod_time);
            EXPECT_GE(rows[k].aod_activity, rows[k - 1].aod_activity);
          }
        }
      }
    }
  }
}

// Availability, AoD and max-availability depend only on the placement, not
// on the connectivity regime: evaluating the same placement under ConRep
// and UnconRep must agree bit for bit on every non-delay metric (the paper
// varies connectivity to study *delay*, with availability as the shared
// axis). Delay is where they part: the UnconRep relay path is never worse
// than direct ConRep rendezvous when the direct graph is fully connected.
TEST_P(PolicySweepProperties, ConnectivityAffectsOnlyDelay) {
  util::Rng rng(GetParam() + 7000);
  for (int round = 0; round < 3; ++round) {
    const std::size_t n = 10;
    const auto dataset = random_dataset(rng, n);
    const auto schedules = random_schedules(rng, n);
    const auto policy = placement::make_policy(PolicyKind::kMaxAv);
    for (graph::UserId u = 0; u < n; ++u) {
      const auto candidates = dataset.graph.contacts(u);
      if (candidates.empty()) continue;
      const std::size_t k_max = std::min<std::size_t>(4, candidates.size());
      const auto ctx =
          make_context(dataset, schedules, u, Connectivity::kConRep, k_max);
      const auto selected = policy->select(ctx, rng);

      const auto con = sim::evaluate_user_prefixes(
          dataset, schedules, u, selected, Connectivity::kConRep, k_max);
      const auto uncon = sim::evaluate_user_prefixes(
          dataset, schedules, u, selected, Connectivity::kUnconRep, k_max);
      ASSERT_EQ(con.size(), uncon.size());
      for (std::size_t k = 0; k < con.size(); ++k) {
        EXPECT_EQ(con[k].availability, uncon[k].availability);
        EXPECT_EQ(con[k].max_availability, uncon[k].max_availability);
        EXPECT_EQ(con[k].aod_time, uncon[k].aod_time);
        EXPECT_EQ(con[k].aod_activity, uncon[k].aod_activity);
        EXPECT_EQ(con[k].replicas_used, uncon[k].replicas_used);
      }

      std::vector<DaySchedule> replicas;
      for (graph::UserId host : selected) replicas.push_back(schedules[host]);
      const auto d_con = metrics::update_propagation_delay(
          schedules[u], replicas, Connectivity::kConRep);
      const auto d_uncon = metrics::update_propagation_delay(
          schedules[u], replicas, Connectivity::kUnconRep);
      if (d_con.fully_connected) {
        EXPECT_LE(d_uncon.actual, d_con.actual);
      }
    }
  }
}

// MaxAv's greedy achieves at least the union coverage (its objective) of
// the Random and MostActive selections on the same candidate set and
// budget — in aggregate over the cohort, the dominance the paper's figures
// rest on. Per-case dominance is deliberately NOT asserted: greedy
// max-coverage is only (1-1/e)-optimal, and individual users where a lucky
// heuristic pick beats greedy do occur (seed 202 produces one). When
// greedy stops early, though, it has proved no candidate adds gain, so
// those cases are exact maxima and checked individually.
TEST_P(PolicySweepProperties, MaxAvDominatesHeuristicsOnItsObjective) {
  util::Rng rng(GetParam() + 8000);
  double sum_maxav = 0.0, sum_most_active = 0.0, sum_random = 0.0;
  for (int round = 0; round < 3; ++round) {
    const std::size_t n = 12;
    const auto dataset = random_dataset(rng, n);
    const auto schedules = random_schedules(rng, n);
    for (graph::UserId u = 0; u < n; ++u) {
      const auto candidates = dataset.graph.contacts(u);
      if (candidates.empty()) continue;
      const std::size_t k = std::min<std::size_t>(3, candidates.size());
      const auto ctx =
          make_context(dataset, schedules, u, Connectivity::kUnconRep, k);

      std::size_t maxav_picked = 0;
      const auto coverage_of = [&](PolicyKind kind) {
        const auto policy = placement::make_policy(kind);
        const auto selected = policy->select(ctx, rng);
        if (kind == PolicyKind::kMaxAv) maxav_picked = selected.size();
        std::vector<DaySchedule> replicas;
        for (graph::UserId host : selected)
          replicas.push_back(schedules[host]);
        return metrics::availability(schedules[u], replicas);
      };

      const double maxav = coverage_of(PolicyKind::kMaxAv);
      const double most_active = coverage_of(PolicyKind::kMostActive);
      const double random = coverage_of(PolicyKind::kRandom);
      sum_maxav += maxav;
      sum_most_active += most_active;
      sum_random += random;
      if (maxav_picked < k) {
        // Early greedy stop: the union of ALL candidates is covered, so no
        // selection whatsoever can exceed this coverage.
        EXPECT_GE(maxav + 1e-12, most_active);
        EXPECT_GE(maxav + 1e-12, random);
      }
    }
  }
  EXPECT_GE(sum_maxav + 1e-9, sum_most_active);
  EXPECT_GE(sum_maxav + 1e-9, sum_random);
}

// Degenerate inputs must produce exact sentinel values, not approximations:
// an all-offline population has availability and delay exactly zero at
// every k, and the AoD ratios collapse to their documented vacuous value of
// exactly 1 (no demand seconds / no received activities to miss).
TEST_P(PolicySweepProperties, EmptyTraceAndZeroKAreExact) {
  util::Rng rng(GetParam() + 9000);
  const std::size_t n = 6;
  graph::SocialGraphBuilder builder(graph::GraphKind::kUndirected, n);
  for (graph::UserId v = 1; v < n; ++v) builder.add_edge(0, v);
  trace::Dataset dataset;
  dataset.name = "empty";
  dataset.graph = std::move(builder).build();
  dataset.trace = trace::ActivityTrace(n, {});

  // All-empty schedules: every metric is pinned exactly.
  const std::vector<DaySchedule> offline(n);
  for (Connectivity conn :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    const std::vector<graph::UserId> selected{1, 2};
    const auto rows = sim::evaluate_user_prefixes(dataset, offline, 0,
                                                  selected, conn, 2);
    ASSERT_EQ(rows.size(), 3u);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(rows[k].availability, 0.0);
      EXPECT_EQ(rows[k].max_availability, 0.0);
      EXPECT_EQ(rows[k].delay_actual_h, 0.0);
      EXPECT_EQ(rows[k].delay_observed_h, 0.0);
      EXPECT_EQ(rows[k].aod_time, 1.0);        // vacuous: no demand
      EXPECT_EQ(rows[k].aod_activity, 1.0);    // vacuous: no activities
      EXPECT_EQ(rows[k].replicas_used, static_cast<double>(k));
    }
  }

  // k = 0 with live schedules: availability is exactly the owner coverage
  // and the delay group is the owner alone (zero delay).
  const auto schedules = random_schedules(rng, n);
  for (Connectivity conn :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    const auto rows =
        sim::evaluate_user_prefixes(dataset, schedules, 0, {}, conn, 0);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].availability, schedules[0].coverage());
    EXPECT_EQ(rows[0].delay_actual_h, 0.0);
    EXPECT_EQ(rows[0].delay_observed_h, 0.0);
    EXPECT_EQ(rows[0].aod_activity, 1.0);      // vacuous: empty trace
    EXPECT_EQ(rows[0].replicas_used, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicySweepProperties,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace dosn
