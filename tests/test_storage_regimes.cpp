// Tests for the storage-regime layer (DESIGN.md §16): the socially-aware
// DHT ring (friend clustering, analytic greedy lookups, anchoring against
// the small DhtRing simulation), the SuperNova-style storekeeper
// directory (volunteer threshold, prefix-monotone assignment, churn
// skips), and their serving-layer integration — hand-computed pair
// oracles, exact degeneracy differentials against the replica-group path,
// metamorphic hop/availability properties, and bit-identity across
// thread counts and observability settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "graph/social_graph.hpp"
#include "interval/day_schedule.hpp"
#include "net/dht.hpp"
#include "net/social_dht.hpp"
#include "obs/obs.hpp"
#include "placement/super_peer.hpp"
#include "serve/serving.hpp"
#include "synth/scale.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace dosn {
namespace {

using interval::DaySchedule;
using interval::IntervalSet;
using interval::kDaySeconds;
using interval::Seconds;
using net::SocialDht;
using net::SocialDhtConfig;
using placement::SuperPeerConfig;
using placement::SuperPeerDirectory;
using serve::ServingConfig;
using serve::ServingReport;

constexpr Seconds kH = 3600;

DaySchedule window(Seconds start_h, Seconds end_h) {
  return DaySchedule(IntervalSet::single(start_h * kH, end_h * kH));
}

/// Absolute (non-periodic) online set of a daily schedule over `days`.
IntervalSet absolute(const DaySchedule& s, int days) {
  IntervalSet out;
  for (int d = 0; d < days; ++d)
    for (const auto& iv : s.set().pieces())
      out.add(d * kDaySeconds + iv.start, d * kDaySeconds + iv.end);
  return out;
}

/// A connected 40-user graph with deterministic structure: a ring plus
/// skip-5 chords, so every user has degree 4 and the clustering pass has
/// real adjacency to work with.
graph::SocialGraph ring_graph(graph::UserId n) {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, n);
  for (graph::UserId i = 0; i < n; ++i) {
    b.add_edge(i, (i + 1) % n);
    b.add_edge(i, (i + 5) % n);
  }
  return std::move(b).build();
}

// --------------------------------------------------- SocialDht structure

TEST(SocialDhtTest, ClusterPassInvariants) {
  const auto g = ring_graph(40);
  SocialDhtConfig config;
  config.cluster_cap = 4;
  const SocialDht dht(g, config);

  ASSERT_EQ(dht.num_nodes(), 40u);
  std::set<graph::UserId> anchors;
  std::size_t members = 0;
  for (graph::UserId u = 0; u < 40; ++u) {
    const graph::UserId a = dht.cluster_anchor(u);
    // Anchoring is idempotent and the anchor has rank 0.
    EXPECT_EQ(dht.cluster_anchor(a), a);
    EXPECT_EQ(dht.cluster_rank(a), 0u);
    EXPECT_LT(dht.cluster_rank(u), config.cluster_cap);
    // A non-anchor member was absorbed through a real edge.
    if (a != u) {
      const auto contacts = g.contacts(a);
      EXPECT_NE(std::find(contacts.begin(), contacts.end(), u),
                contacts.end())
          << "user " << u << " anchored at non-contact " << a;
    }
    // The key remap is exactly plain_key(anchor) + rank.
    EXPECT_EQ(dht.key_position(u),
              SocialDht::plain_key_position(a) + dht.cluster_rank(u));
    anchors.insert(a);
    ++members;
  }
  EXPECT_EQ(anchors.size(), dht.num_clusters());
  EXPECT_EQ(members, 40u);
  // cap 4 over a degree-4 graph must actually form multi-member clusters.
  EXPECT_LT(dht.num_clusters(), 40u);
  // Ranks within one cluster are distinct (keys collide otherwise).
  for (const graph::UserId a : anchors) {
    std::set<std::uint32_t> ranks;
    for (graph::UserId u = 0; u < 40; ++u) {
      if (dht.cluster_anchor(u) == a) {
        EXPECT_TRUE(ranks.insert(dht.cluster_rank(u)).second);
      }
    }
  }
}

TEST(SocialDhtTest, DegeneraciesReduceToPlainKeys) {
  const auto g = ring_graph(40);
  SocialDhtConfig aware;
  aware.cluster_cap = 1;  // socially aware, but every cluster is a singleton
  const SocialDht capped(g, aware);
  const SocialDht plain(g, aware.plain());

  EXPECT_EQ(capped.num_clusters(), 40u);
  EXPECT_EQ(plain.num_clusters(), 40u);
  for (graph::UserId u = 0; u < 40; ++u) {
    EXPECT_EQ(capped.key_position(u), SocialDht::plain_key_position(u));
    EXPECT_EQ(plain.key_position(u), SocialDht::plain_key_position(u));
    EXPECT_EQ(capped.owner_of(u), plain.owner_of(u));
    EXPECT_EQ(capped.responsible_nodes(u), plain.responsible_nodes(u));
  }
}

TEST(SocialDhtTest, PlainResponsibleSetsAnchorAgainstDhtRing) {
  // The scaled ring and the faithful DhtRing simulation must agree on
  // plain-key ownership node for node: same position hash, same successor
  // walk.
  constexpr graph::UserId kN = 24;
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, kN);
  b.add_edge(0, 1);  // edges are irrelevant for the plain config
  const auto g = std::move(b).build();

  SocialDhtConfig config;
  config.socially_aware = false;
  config.replication = 3;
  const SocialDht dht(g, config);

  net::DhtRing ring(3);
  for (graph::UserId u = 0; u < kN; ++u) ring.join(u);

  for (graph::UserId u = 0; u < kN; ++u) {
    const auto ours = dht.responsible_nodes(u);
    const auto theirs =
        ring.responsible_nodes("profile:" + std::to_string(u));
    ASSERT_EQ(ours.size(), theirs.size()) << "user " << u;
    for (std::size_t i = 0; i < ours.size(); ++i)
      EXPECT_EQ(static_cast<std::uint64_t>(ours[i]), theirs[i])
          << "user " << u << " replica " << i;
  }
}

TEST(SocialDhtTest, LookupFindsOwnerWithBoundedHops) {
  const auto g = ring_graph(40);
  for (const bool aware : {true, false}) {
    SocialDhtConfig config;
    config.socially_aware = aware;
    const SocialDht dht(g, config);
    for (graph::UserId requester = 0; requester < 40; ++requester) {
      for (graph::UserId target = 0; target < 40; target += 3) {
        const auto l = dht.lookup_from(requester, target);
        EXPECT_EQ(l.owner, dht.owner_of(target));
        // The greedy walk halves the remaining distance every hop.
        EXPECT_LE(l.hops, 64u);
      }
    }
  }
}

TEST(SocialDhtTest, ConfigTextRoundTrips) {
  SocialDhtConfig config;
  config.replication = 5;
  config.socially_aware = false;
  config.cluster_cap = 9;
  config.hop_cost = 11;
  EXPECT_EQ(net::parse_social_dht(net::to_text(config)), config);
  EXPECT_EQ(net::parse_social_dht(
                "# comment\nsocial_dht replication=5 socially_aware=0 "
                "cluster_cap=9 hop_cost=11\n"),
            config);
  EXPECT_EQ(net::parse_social_dht(""), SocialDhtConfig{});
}

// ------------------------------------------------ SuperPeer directory

TEST(SuperPeerTest, VolunteerThresholdIsExactOnCoverage) {
  // Coverages: 1.0, 0.75, 0.5, 0.25, 0.125, 1/24.
  const std::vector<DaySchedule> schedules{window(0, 24), window(0, 18),
                                           window(0, 12), window(0, 6),
                                           window(0, 3),  window(0, 1)};
  SuperPeerConfig config;
  config.volunteer_threshold = 0.5;
  const SuperPeerDirectory half(schedules, config);
  // Exactly the users at or above 12 h/day, in id order — the 0.5
  // boundary user is admitted (>=, integer-exact).
  EXPECT_EQ(std::vector<placement::UserId>(half.volunteers().begin(),
                                           half.volunteers().end()),
            (std::vector<placement::UserId>{0, 1, 2}));
  EXPECT_TRUE(half.is_volunteer(2));
  EXPECT_FALSE(half.is_volunteer(3));

  config.volunteer_threshold = 1.0;
  const SuperPeerDirectory strict(schedules, config);
  EXPECT_EQ(std::vector<placement::UserId>(strict.volunteers().begin(),
                                           strict.volunteers().end()),
            (std::vector<placement::UserId>{0}));
}

std::vector<DaySchedule> volunteer_pool() {
  std::vector<DaySchedule> schedules;
  for (int u = 0; u < 12; ++u)
    schedules.push_back(window(u % 12, (u % 12) + 2 + (u % 5)));
  return schedules;
}

TEST(SuperPeerTest, AssignmentIsPrefixMonotoneInTarget) {
  const auto schedules = volunteer_pool();
  SuperPeerConfig config;
  config.volunteer_threshold = 0.05;
  config.max_storekeepers = 8;
  const std::vector<placement::UserId> group{7};

  std::vector<placement::UserId> prev;
  for (const double target : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    config.target_availability = target;
    const SuperPeerDirectory dir(schedules, config);
    const auto picks = dir.assign_storekeepers(7, group, 42);
    // Same walk, later stop: the lower-target picks are a prefix.
    ASSERT_GE(picks.size(), prev.size()) << "target " << target;
    for (std::size_t i = 0; i < prev.size(); ++i)
      EXPECT_EQ(picks[i], prev[i]) << "target " << target;
    // Every pick is a distinct volunteer outside the group.
    std::set<placement::UserId> seen;
    for (const auto v : picks) {
      EXPECT_TRUE(dir.is_volunteer(v));
      EXPECT_NE(v, 7u);
      EXPECT_TRUE(seen.insert(v).second);
    }
    EXPECT_LE(picks.size(), config.max_storekeepers);
    // Deterministic: the same call reproduces the same picks.
    EXPECT_EQ(dir.assign_storekeepers(7, group, 42), picks);
    prev = picks;
  }
  EXPECT_GT(prev.size(), 0u);
}

TEST(SuperPeerTest, CrashedVolunteersAreSkippedNotFatal) {
  const auto schedules = volunteer_pool();
  SuperPeerConfig config;
  config.volunteer_threshold = 0.05;
  config.target_availability = 0.95;
  const SuperPeerDirectory dir(schedules, config);
  const std::vector<placement::UserId> group{7};

  const auto crashed_even = [](placement::UserId v) { return v % 2 == 0; };
  const auto picks = dir.assign_storekeepers(7, group, 42, crashed_even);
  EXPECT_GT(picks.size(), 0u);
  for (const auto v : picks) EXPECT_EQ(v % 2, 1u) << "crashed pick " << v;

  // Every volunteer down: the walk gives up at its attempt bound.
  const auto none = dir.assign_storekeepers(
      7, group, 42, [](placement::UserId) { return true; });
  EXPECT_TRUE(none.empty());
}

TEST(SuperPeerTest, ConfigTextRoundTrips) {
  SuperPeerConfig config;
  config.volunteer_threshold = 0.25;
  config.target_availability = 0.75;
  config.max_storekeepers = 12;
  EXPECT_EQ(placement::parse_super_peer(placement::to_text(config)), config);
  EXPECT_EQ(placement::parse_super_peer(
                "super_peer volunteer_threshold=0.25 "
                "target_availability=0.75 max_storekeepers=12\n"),
            config);
  EXPECT_EQ(placement::parse_super_peer("# nothing\n"), SuperPeerConfig{});
}

// ------------------------------------------- serving-level: pair oracle

trace::Dataset pair_dataset() {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 2);
  b.add_edge(0, 1);
  trace::Dataset d;
  d.name = "pair";
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(2, {});
  return d;
}

TEST(SocialDhtServingTest, PairMatchesHandComputedWaits) {
  // Two users, two-node ring, replication 2: each profile's responsible
  // set is both nodes, so every request waits on the union of both
  // schedules (reads/feeds) or the friend's own schedule (writes), plus
  // the greedy route taxed at hop_cost — all hand-computable.
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.regime = placement::StorageRegime::kSocialDht;
  config.social_dht.replication = 2;
  config.social_dht.hop_cost = 7;
  config.workload.horizon_days = 3;

  const SocialDht dht(d.graph, config.social_dht);
  for (const std::uint64_t seed : {5u, 17u, 42u}) {
    const auto report =
        run_serving_study(d, schedules, cohort, seed, config);

    std::uint64_t requests = 0, unserved = 0, slo_misses = 0;
    std::uint64_t lookups = 0, hops = 0;
    Seconds latency_sum = 0;
    const auto both = absolute(schedules[0], 3).unite(absolute(schedules[1], 3));
    for (graph::UserId u : {0u, 1u}) {
      const graph::UserId v = u == 0 ? 1 : 0;
      const Seconds tax =
          7 * static_cast<Seconds>(dht.lookup_from(u, v).hops);
      const auto friend_store = absolute(schedules[v], 3);
      for (const auto& r : serve::user_requests(config.workload, seed, u, 1)) {
        ++requests;
        std::optional<Seconds> latency;
        if (r.kind == serve::RequestKind::kPostWrite) {
          // Durable at the first non-owner responsible node: the friend.
          if (const auto next = friend_store.next_at_or_after(r.time))
            latency = *next - r.time;
        } else {
          // Read and single-contact feed both resolve v's key (one
          // lookup, taxed) and wait on v's whole responsible group.
          ++lookups;
          hops += dht.lookup_from(u, v).hops;
          if (const auto next = both.next_at_or_after(r.time))
            latency = *next - r.time + tax;
        }
        if (!latency) {
          ++unserved;
          ++slo_misses;
        } else {
          latency_sum += *latency;
          if (*latency > config.slo) ++slo_misses;
        }
      }
    }
    EXPECT_GT(requests, 0u);
    EXPECT_EQ(report.requests, requests) << "seed " << seed;
    EXPECT_EQ(report.unserved, unserved) << "seed " << seed;
    EXPECT_EQ(report.slo_misses, slo_misses) << "seed " << seed;
    EXPECT_EQ(report.latency.sum(), latency_sum) << "seed " << seed;
    EXPECT_EQ(report.regime.lookups, lookups) << "seed " << seed;
    EXPECT_EQ(report.regime.lookup_hops, hops) << "seed " << seed;
    // Degree-1 feeds never revisit an owner.
    EXPECT_EQ(report.regime.locality_hits, 0u);
    EXPECT_EQ(report.regime.groups, 2u);
    // Two-node ring at replication 2: one holder beyond each owner.
    EXPECT_EQ(report.regime.replica_holders, 2u);
    EXPECT_EQ(report.regime.storekeepers, 0u);
  }
}

TEST(SocialDhtServingTest, ReplicationOneOwnerWritesLocally) {
  // Replication 1 on the two-node ring: user 0's key lands on node 0, so
  // the owner is the whole responsible set and a put has no non-owner
  // node to reach — every write of user 0 is durable locally at one
  // crypto op. Its reads wait on user 1's group, which is user 1 plus
  // the responsible node 0.
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0};
  ServingConfig config;
  config.regime = placement::StorageRegime::kSocialDht;
  config.social_dht.replication = 1;
  config.social_dht.hop_cost = 7;
  config.crypto_op_cost = 3;
  config.workload.horizon_days = 3;

  const SocialDht dht(d.graph, config.social_dht);
  ASSERT_EQ(dht.responsible_nodes(0), std::vector<graph::UserId>{0});
  ASSERT_EQ(dht.responsible_nodes(1), std::vector<graph::UserId>{0});
  const Seconds tax = 7 * static_cast<Seconds>(dht.lookup_from(0, 1).hops);
  const auto both = absolute(schedules[0], 3).unite(absolute(schedules[1], 3));
  std::uint64_t total_writes = 0;
  for (const std::uint64_t seed : {5u, 17u, 42u}) {
    const auto report =
        run_serving_study(d, schedules, cohort, seed, config);

    std::uint64_t writes = 0, fetches = 0, fetch_unserved = 0;
    Seconds fetch_latency_sum = 0;
    for (const auto& r : serve::user_requests(config.workload, seed, 0, 1)) {
      if (r.kind == serve::RequestKind::kPostWrite) {
        ++writes;
        continue;
      }
      ++fetches;
      if (const auto next = both.next_at_or_after(r.time))
        fetch_latency_sum += *next - r.time + 3 + tax;
      else
        ++fetch_unserved;
    }
    total_writes += writes;
    EXPECT_EQ(report.write.requests, writes) << "seed " << seed;
    EXPECT_EQ(report.write.unserved, 0u) << "seed " << seed;
    EXPECT_EQ(report.write.slo_misses, 0u) << "seed " << seed;
    EXPECT_EQ(report.write.latency.sum(), 3 * static_cast<Seconds>(writes))
        << "seed " << seed;
    EXPECT_EQ(report.read.requests + report.feed.requests, fetches);
    EXPECT_EQ(report.read.unserved + report.feed.unserved, fetch_unserved);
    EXPECT_EQ(report.read.latency.sum() + report.feed.latency.sum(),
              fetch_latency_sum)
        << "seed " << seed;
    EXPECT_EQ(report.regime.replica_holders, 0u);
  }
  EXPECT_GT(total_writes, 0u);
}

// ----------------------------------- serving-level: regime differentials

synth::ScaleStudyInput small_input() {
  synth::ScaleOptions options;
  options.users = 400;
  synth::ScaleInputConfig config;
  config.preset = synth::scale_preset(options);
  config.chunk_users = 128;
  return synth::build_scale_study_input(config, 20120618);
}

/// Churny base the differential and metamorphic tests run under.
ServingConfig regime_config(placement::StorageRegime regime) {
  ServingConfig config;
  config.regime = regime;
  config.replicas = 3;
  config.served_users = 24;
  config.workload.horizon_days = 7;
  config.faults.seed = 5;
  config.faults.session_no_show = 0.3;
  config.faults.session_truncate = 0.3;
  config.faults.truncate_max_fraction = 0.8;
  config.social_dht.replication = 3;
  config.social_dht.hop_cost = 5;
  config.super_peer.volunteer_threshold = 0.05;
  config.super_peer.target_availability = 0.7;
  return config;
}

ServingReport run_small(const synth::ScaleStudyInput& input,
                        const ServingConfig& config, std::uint64_t seed,
                        util::ThreadPool* pool = nullptr) {
  return run_serving_study(input.dataset, input.schedules, input.cohort,
                           seed, config, pool);
}

TEST(SocialDhtServingTest, ClusterCapOneMatchesPlainDhtBitForBit) {
  // Both exact degeneracies of the socially-aware remap, under churn:
  // cap-1 clustering and the remap switched off must produce the same
  // request log as each other — the same ring, key for key.
  const auto input = small_input();
  auto config = regime_config(placement::StorageRegime::kSocialDht);
  config.social_dht.cluster_cap = 1;
  const auto capped = run_small(input, config, 11);
  config.social_dht = config.social_dht.plain();
  config.social_dht.cluster_cap = 16;
  const auto plain = run_small(input, config, 11);
  EXPECT_EQ(capped, plain);
  EXPECT_GT(capped.regime.lookups, 0u);
}

TEST(SocialDhtServingTest, ZeroPlanResilienceMatchesNaiveDhtPath) {
  // Under the zero fault plan the resilient client must reproduce the
  // naive DHT serving path's request log bit for bit (the resilience
  // alternatives are provably no earlier; only effort counters differ).
  const auto input = small_input();
  auto config = regime_config(placement::StorageRegime::kSocialDht);
  config.faults = {};
  const auto naive = run_small(input, config, 11);

  config.resilience.hedged_reads = true;
  config.resilience.stale_failover = true;
  config.resilience.degrade_feeds = true;
  const auto resilient = run_small(input, config, 11);
  EXPECT_EQ(resilient.request_log_checksum, naive.request_log_checksum);
  EXPECT_EQ(resilient.read, naive.read);
  EXPECT_EQ(resilient.feed, naive.feed);
  EXPECT_EQ(resilient.write, naive.write);
  EXPECT_EQ(resilient.latency, naive.latency);
  EXPECT_EQ(resilient.unserved, naive.unserved);
  EXPECT_EQ(resilient.regime, naive.regime);
  EXPECT_EQ(resilient.resilience.hedge_wins, 0u);
  EXPECT_EQ(resilient.resilience.stale_served, 0u);
  EXPECT_EQ(resilient.resilience.degraded_feeds, 0u);
}

TEST(SocialDhtServingTest, SocialRemapNeverIncreasesMeanHops) {
  // The metamorphic heart of the regime: same seed, same workload — the
  // friend-clustered ring resolves the same number of lookups in no more
  // total hops than the plain ring, and actually converts fan-in
  // duplicates into free locality hits.
  const auto input = small_input();
  for (const std::uint64_t seed : {5u, 11u}) {
    auto config = regime_config(placement::StorageRegime::kSocialDht);
    const auto social = run_small(input, config, seed);
    config.social_dht = config.social_dht.plain();
    const auto plain = run_small(input, config, seed);

    EXPECT_EQ(social.requests, plain.requests) << "seed " << seed;
    EXPECT_EQ(social.regime.lookups, plain.regime.lookups) << "seed " << seed;
    EXPECT_LE(social.regime.mean_lookup_hops(),
              plain.regime.mean_lookup_hops())
        << "seed " << seed;
    EXPECT_GT(social.regime.locality_hits, plain.regime.locality_hits)
        << "seed " << seed;
    EXPECT_GT(social.regime.lookups, 0u);
  }
}

TEST(SocialDhtServingTest, RoutingIsIndependentOfTheFaultPlan) {
  // Lookups route on the immutable ring: the fault realization changes
  // waits, never routes — hop totals are identical with faults on or off.
  const auto input = small_input();
  const auto faulted =
      run_small(input, regime_config(placement::StorageRegime::kSocialDht), 11);
  auto config = regime_config(placement::StorageRegime::kSocialDht);
  config.faults = {};
  const auto calm = run_small(input, config, 11);
  EXPECT_EQ(faulted.regime.lookups, calm.regime.lookups);
  EXPECT_EQ(faulted.regime.lookup_hops, calm.regime.lookup_hops);
  EXPECT_EQ(faulted.regime.locality_hits, calm.regime.locality_hits);
  // ...while the faults did degrade the waits.
  EXPECT_GE(faulted.slo_misses, calm.slo_misses);
}

TEST(SuperPeerServingTest, ThresholdOneDegradesToReplicaGroupExactly) {
  // volunteer_threshold 1.0 empties the directory (no synthetic schedule
  // covers a full day), so the regime must reproduce the plain
  // replica-group report bit for bit — whole-report equality, at several
  // seeds and thread counts.
  const auto input = small_input();
  SuperPeerConfig strict;
  strict.volunteer_threshold = 1.0;
  EXPECT_TRUE(
      SuperPeerDirectory(input.schedules, strict).volunteers().empty());

  for (const std::uint64_t seed : {5u, 11u, 23u}) {
    auto config = regime_config(placement::StorageRegime::kSuperPeer);
    config.super_peer.volunteer_threshold = 1.0;
    const auto conrep =
        run_small(input, regime_config(placement::StorageRegime::kReplicaGroup),
                  seed);
    const auto super_serial = run_small(input, config, seed);
    EXPECT_EQ(super_serial, conrep) << "seed " << seed;

    util::ThreadPool pool(4);
    const auto super_parallel = run_small(input, config, seed, &pool);
    EXPECT_EQ(super_parallel, conrep) << "seed " << seed;
  }
}

TEST(SuperPeerServingTest, AvailabilityMonotoneInTargetAvailability) {
  // The prefix property at serving level: raising target_availability
  // only adds storekeepers, so delivered availability and storekeeper
  // counts are nondecreasing and unserved/SLO misses nonincreasing.
  const auto input = small_input();
  std::uint64_t prev_keepers = 0, prev_online = 0;
  std::uint64_t prev_unserved = UINT64_MAX, prev_misses = UINT64_MAX;
  for (const double target : {0.2, 0.5, 0.8}) {
    auto config = regime_config(placement::StorageRegime::kSuperPeer);
    config.super_peer.target_availability = target;
    const auto report = run_small(input, config, 11);
    EXPECT_GE(report.regime.storekeepers, prev_keepers) << target;
    EXPECT_GE(report.regime.online_seconds, prev_online) << target;
    EXPECT_LE(report.unserved, prev_unserved) << target;
    EXPECT_LE(report.slo_misses, prev_misses) << target;
    prev_keepers = report.regime.storekeepers;
    prev_online = report.regime.online_seconds;
    prev_unserved = report.unserved;
    prev_misses = report.slo_misses;
  }
  EXPECT_GT(prev_keepers, 0u);
}

TEST(SuperPeerServingTest, StorekeepersNeverHurtTheReplicaGroupBaseline) {
  // Storekeepers only widen the read surface: availability at least the
  // plain group's, unserved at most — exact dominance, not statistical.
  const auto input = small_input();
  for (const std::uint64_t seed : {5u, 11u}) {
    const auto conrep =
        run_small(input, regime_config(placement::StorageRegime::kReplicaGroup),
                  seed);
    const auto super =
        run_small(input, regime_config(placement::StorageRegime::kSuperPeer),
                  seed);
    EXPECT_EQ(super.requests, conrep.requests) << "seed " << seed;
    EXPECT_GE(super.regime.online_seconds, conrep.regime.online_seconds)
        << "seed " << seed;
    EXPECT_LE(super.unserved, conrep.unserved) << "seed " << seed;
    EXPECT_LE(super.latency.sum(), conrep.latency.sum()) << "seed " << seed;
    EXPECT_GT(super.regime.storekeepers, 0u) << "seed " << seed;
    EXPECT_GE(super.regime.replication_degree(),
              conrep.regime.replication_degree())
        << "seed " << seed;
  }
}

TEST(SuperPeerServingTest, FullDhtCrashDegradesToReplicaGroup) {
  // dht_crash 1.0 holds every volunteer down for the whole horizon: no
  // storekeeper is ever assigned and the report equals the plain
  // replica-group run under the same plan (the knob touches nothing else
  // on the serving path).
  const auto input = small_input();
  auto config = regime_config(placement::StorageRegime::kSuperPeer);
  config.faults.dht_crash = 1.0;
  const auto crashed = run_small(input, config, 11);

  auto base = regime_config(placement::StorageRegime::kReplicaGroup);
  base.faults.dht_crash = 1.0;
  const auto conrep = run_small(input, base, 11);
  EXPECT_EQ(crashed, conrep);
  EXPECT_EQ(crashed.regime.storekeepers, 0u);
}

// ------------------------------------------------ cross-regime identity

TEST(StorageRegimeTest, BitIdenticalAcrossThreadCountsAndObservability) {
  const auto input = small_input();
  for (const auto regime : {placement::StorageRegime::kSocialDht,
                            placement::StorageRegime::kSuperPeer}) {
    const auto config = regime_config(regime);
    const auto serial = run_small(input, config, 11);
    EXPECT_GT(serial.requests, 0u);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      const auto parallel = run_small(input, config, 11, &pool);
      EXPECT_EQ(parallel, serial)
          << to_string(regime) << " at " << threads << " threads";
    }
    const bool was_enabled = obs::enabled();
    obs::set_enabled(false);
    const auto dark = run_small(input, config, 11);
    obs::set_enabled(was_enabled);
    EXPECT_EQ(dark, serial) << to_string(regime);
  }
}

TEST(StorageRegimeTest, ReplicaGroupReportsGroupAxesOnly) {
  const auto input = small_input();
  const auto report = run_small(
      input, regime_config(placement::StorageRegime::kReplicaGroup), 11);
  EXPECT_EQ(report.regime.groups, 24u);
  EXPECT_EQ(report.regime.lookups, 0u);
  EXPECT_EQ(report.regime.lookup_hops, 0u);
  EXPECT_EQ(report.regime.locality_hits, 0u);
  EXPECT_EQ(report.regime.storekeepers, 0u);
  EXPECT_LE(report.regime.replication_degree(), 3.0);
  EXPECT_GT(report.regime.online_seconds, 0u);
  const Seconds horizon = 7 * kDaySeconds;
  EXPECT_GT(report.regime.availability(horizon), 0.0);
  EXPECT_LE(report.regime.availability(horizon), 1.0);
}

}  // namespace
}  // namespace dosn
