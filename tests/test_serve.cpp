// Tests for the request-level serving layer: histogram quantile contract
// against a sorted-vector oracle, workload determinism, serving semantics
// against hand-computed waits (ConRep replica writes included), bit-
// identity across thread counts and observability settings, one
// realization per referenced profile, fault counters published per
// realized group, one realization of every session piece (writers'
// durable surfaces included), exact SLO-miss monotonicity under nested fault
// intensities, and a
// golden grid pinning the request log and effort counters of every
// regime x resilience-policy cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "serve/serving.hpp"
#include "synth/scale.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace dosn::serve {
namespace {

using interval::DaySchedule;
using interval::Interval;
using interval::IntervalSet;
using interval::kDaySeconds;

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

// ------------------------------------------------------ LatencyHistogram

TEST(LatencyHistogramTest, DefaultBoundsAreStrictlyIncreasing) {
  const auto& b = LatencyHistogram::default_bounds();
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.front(), 0);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  EXPECT_GE(b.back(), 14 * kDaySeconds);
}

TEST(LatencyHistogramTest, QuantileMatchesSortedVectorOracle) {
  util::Rng rng(0xfeedULL);
  LatencyHistogram h;
  std::vector<Seconds> values;
  for (int i = 0; i < 5000; ++i) {
    // Mixed magnitudes: 0 s .. ~2M s, heavy at the low end.
    const auto magnitude = rng.below(22);
    const auto v = static_cast<Seconds>(rng.below(1ULL << magnitude));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(h.count(), values.size());
  EXPECT_EQ(h.max(), values.back());

  const auto bounds = h.bounds();
  for (const double q :
       {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(values.size()))));
    const Seconds exact = values[rank - 1];
    // The documented contract: smallest bound >= the exact order
    // statistic, or the exact maximum from the overflow bucket.
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), exact);
    const Seconds expected = it == bounds.end() ? values.back() : *it;
    EXPECT_EQ(h.quantile(q), expected) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeEqualsRecordingEverythingInOne) {
  util::Rng rng(7);
  LatencyHistogram all, a, b, c;
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<Seconds>(rng.below(100'000));
    all.record(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
  }
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a, all);
  EXPECT_EQ(a.sum(), all.sum());
}

TEST(LatencyHistogramTest, EmptyAndContracts) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.99), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_THROW(h.record(-1), util::ContractError);
  EXPECT_THROW(h.quantile(1.5), util::ContractError);
  // Bounds are caller-supplied configuration, not an internal invariant.
  EXPECT_THROW(LatencyHistogram(std::vector<Seconds>{}), ConfigError);
  EXPECT_THROW(LatencyHistogram(std::vector<Seconds>{3, 3}), ConfigError);
}

// ------------------------------------------------------------- workload

TEST(WorkloadTest, StreamIsAPureFunctionOfSeedAndUser) {
  WorkloadConfig config;
  const auto a = user_requests(config, 42, 7, 20);
  const auto b = user_requests(config, 42, 7, 20);
  EXPECT_EQ(a, b);
  // Different user or seed: a different stream.
  EXPECT_NE(a, user_requests(config, 42, 8, 20));
  EXPECT_NE(a, user_requests(config, 43, 7, 20));
}

TEST(WorkloadTest, RequestsSortedInHorizonWithValidTargets) {
  WorkloadConfig config;
  config.requests_per_user_per_day = 8.0;
  const std::size_t degree = 5;
  const auto requests = user_requests(config, 1, 3, degree);
  const Seconds horizon = config.horizon_days * kDaySeconds;
  // ~112 expected; a generous deterministic band.
  EXPECT_GT(requests.size(), 40u);
  EXPECT_LT(requests.size(), 250u);
  Seconds prev = 0;
  bool saw[3] = {false, false, false};
  for (const auto& r : requests) {
    EXPECT_GE(r.time, prev);
    prev = r.time;
    EXPECT_LT(r.time, horizon);
    EXPECT_LT(r.target_index, degree);
    saw[static_cast<int>(r.kind)] = true;
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
}

TEST(WorkloadTest, ValidateRejectsBadKnobs) {
  WorkloadConfig config;
  config.requests_per_user_per_day = 0.0;
  EXPECT_THROW(user_requests(config, 1, 1, 1), ConfigError);
  config = {};
  config.read_fraction = 0.8;
  config.feed_fraction = 0.3;
  EXPECT_THROW(validate(config), ConfigError);
  config = {};
  config.horizon_days = 0;
  EXPECT_THROW(validate(config), ConfigError);
  // NaN fails every comparison and +inf stalls the arrival clock; both
  // must be rejected up front (validate only: an infinite rate never
  // finishes generating).
  for (const double bad :
       {std::nan(""), std::numeric_limits<double>::infinity()}) {
    config = {};
    config.requests_per_user_per_day = bad;
    EXPECT_THROW(validate(config), ConfigError) << bad;
    config = {};
    config.read_fraction = bad;
    EXPECT_THROW(validate(config), ConfigError) << bad;
    config = {};
    config.feed_fraction = bad;
    EXPECT_THROW(validate(config), ConfigError) << bad;
  }
}

// ------------------------------------------------------ serving semantics

trace::Dataset pair_dataset() {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 2);
  b.add_edge(0, 1);
  trace::Dataset d;
  d.name = "pair";
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(2, {});
  return d;
}

/// Hand-computed report for the two-user, zero-replica, zero-fault case.
struct PairOracle {
  std::uint64_t requests = 0;
  std::uint64_t unserved = 0;
  std::uint64_t slo_misses = 0;
  Seconds latency_sum = 0;
};

PairOracle pair_conrep_oracle(const ServingConfig& config, std::uint64_t seed,
                              std::span<const DaySchedule> schedules) {
  PairOracle o;
  for (graph::UserId u : {0u, 1u}) {
    const auto friend_online =
        absolute(schedules[u == 0 ? 1 : 0], config.workload.horizon_days);
    for (const auto& r : user_requests(config.workload, seed, u, 1)) {
      ++o.requests;
      std::optional<Seconds> latency;
      if (r.kind == RequestKind::kPostWrite) {
        latency = 0;  // zero replicas: local durability
      } else {
        // Read and (single-contact) feed both wait for the one friend.
        if (const auto next = friend_online.next_at_or_after(r.time))
          latency = *next - r.time;
      }
      if (!latency) {
        ++o.unserved;
        ++o.slo_misses;
      } else {
        o.latency_sum += *latency;
        if (*latency > config.slo) ++o.slo_misses;
      }
    }
  }
  return o;
}

TEST(ServingTest, ConRepPairMatchesHandComputedWaits) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 0;
  config.workload.horizon_days = 3;

  std::uint64_t total_unserved = 0;
  for (const std::uint64_t seed : {99u, 5u, 17u, 23u, 42u}) {
    const auto report = run_serving_study(d, schedules, cohort, seed, config);
    const auto oracle = pair_conrep_oracle(config, seed, schedules);

    EXPECT_EQ(report.requests, oracle.requests) << "seed " << seed;
    EXPECT_GT(report.requests, 0u);
    EXPECT_EQ(report.unserved, oracle.unserved) << "seed " << seed;
    EXPECT_EQ(report.slo_misses, oracle.slo_misses) << "seed " << seed;
    EXPECT_EQ(report.latency.sum(), oracle.latency_sum) << "seed " << seed;
    EXPECT_EQ(report.served, report.requests - report.unserved);
    EXPECT_EQ(report.served_users, 2u);
    EXPECT_DOUBLE_EQ(report.slo_miss_fraction(),
                     static_cast<double>(oracle.slo_misses) /
                         static_cast<double>(oracle.requests));
    total_unserved += report.unserved;
  }
  // Some read of user 0's profile after its final session must have been
  // unserveable across these seeds.
  EXPECT_GT(total_unserved, 0u);
}

TEST(ServingTest, CryptoTaxShiftsEveryServedRequest) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 0;
  config.workload.horizon_days = 3;

  const auto base = run_serving_study(d, schedules, cohort, 5, config);
  config.crypto_op_cost = 7;
  const auto taxed = run_serving_study(d, schedules, cohort, 5, config);

  // Degree 1, zero replicas: read +7, feed +7, write +7 — every served
  // request shifts by exactly one op.
  EXPECT_EQ(taxed.requests, base.requests);
  EXPECT_EQ(taxed.unserved, base.unserved);
  EXPECT_EQ(taxed.latency.sum(),
            base.latency.sum() + 7 * static_cast<Seconds>(base.served));
  EXPECT_GE(taxed.slo_misses, base.slo_misses);
  EXPECT_NE(taxed.request_log_checksum, base.request_log_checksum);
}

TEST(ServingTest, UnconRepReadsHitTheRelayInstantly) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 0;
  config.connectivity = placement::Connectivity::kUnconRep;
  config.workload.horizon_days = 3;
  const std::uint64_t seed = 17;

  const auto report = run_serving_study(d, schedules, cohort, seed, config);

  // No relay outage: every read/feed is served from the store at once.
  EXPECT_EQ(report.read.latency.sum(), 0);
  EXPECT_EQ(report.feed.latency.sum(), 0);
  EXPECT_EQ(report.read.unserved + report.feed.unserved, 0u);

  // Writes wait for the owner's next session (upload to the store).
  Seconds expected_write_sum = 0;
  std::uint64_t expected_write_unserved = 0;
  for (graph::UserId u : {0u, 1u}) {
    const auto own = absolute(schedules[u], config.workload.horizon_days);
    for (const auto& r : user_requests(config.workload, seed, u, 1)) {
      if (r.kind != RequestKind::kPostWrite) continue;
      if (const auto next = own.next_at_or_after(r.time))
        expected_write_sum += *next - r.time;
      else
        ++expected_write_unserved;
    }
  }
  EXPECT_EQ(report.write.latency.sum(), expected_write_sum);
  EXPECT_EQ(report.write.unserved, expected_write_unserved);
}

TEST(ServingTest, RelayOutageDelaysUnconRepReads) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 0;
  config.connectivity = placement::Connectivity::kUnconRep;
  config.workload.horizon_days = 3;
  config.faults.relay_outages.push_back({0, 2 * kDaySeconds});

  const auto report = run_serving_study(d, schedules, cohort, 23, config);
  // During the outage a read still falls back to the friend's group wait;
  // some reads must now realize a positive latency.
  EXPECT_GT(report.read.latency.sum() + report.feed.latency.sum(), 0);
}

TEST(ServingTest, ConRepReplicaWriteWaitsForOwnerToMeetReplica) {
  // One replica each way: each user's only contact is its only candidate,
  // and the 10:00-11:00 overlap makes the pair ConRep-connected. A write
  // is durable at the next instant owner and replica are online together
  // — [10:00, 11:00) every day, for both users — and pays 1 + |selection|
  // = 2 crypto ops.
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 11), window(10, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 1;
  config.crypto_op_cost = 7;
  config.workload.horizon_days = 3;
  const auto meet = absolute(window(10, 11), config.workload.horizon_days);

  std::uint64_t total_writes = 0;
  std::uint64_t total_unserved = 0;
  for (const std::uint64_t seed : {5u, 17u, 23u, 42u}) {
    std::uint64_t writes = 0;
    std::uint64_t unserved = 0;
    Seconds latency_sum = 0;
    for (graph::UserId u : {0u, 1u}) {
      for (const auto& r : user_requests(config.workload, seed, u, 1)) {
        if (r.kind != RequestKind::kPostWrite) continue;
        ++writes;
        if (const auto next = meet.next_at_or_after(r.time))
          latency_sum += *next - r.time + 2 * config.crypto_op_cost;
        else
          ++unserved;
      }
    }
    const auto report = run_serving_study(d, schedules, cohort, seed, config);
    EXPECT_EQ(report.regime.replica_holders, 2u) << "seed " << seed;
    EXPECT_EQ(report.write.requests, writes) << "seed " << seed;
    EXPECT_EQ(report.write.unserved, unserved) << "seed " << seed;
    EXPECT_EQ(report.write.latency.sum(), latency_sum) << "seed " << seed;
    total_writes += writes;
    total_unserved += unserved;
  }
  EXPECT_GT(total_writes, total_unserved);
}

TEST(ServingTest, FlashOnlyWriterWaitsForOwnerToMeetReplica) {
  // The ConRep pair above, with writes only from a flash crowd: the base
  // streams carry no write, so only the pre-pass reading the flash extras
  // marks the users as writers. Each flash write must wait for owner ∩
  // replica ([10:00, 11:00) daily) plus 2 crypto ops, never be durable
  // locally (crypto alone).
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 11), window(10, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 1;
  config.crypto_op_cost = 7;
  config.workload.horizon_days = 3;
  config.workload.requests_per_user_per_day = 1.0;
  config.faults.scenario.flash_crowds.push_back(
      {.start = 0, .end = 3 * kDaySeconds, .load_multiplier = 11.0});
  const std::uint64_t seed = 3;
  const auto meet = absolute(window(10, 11), config.workload.horizon_days);

  std::uint64_t writes = 0;
  std::uint64_t unserved = 0;
  Seconds latency_sum = 0;
  for (graph::UserId u : {0u, 1u}) {
    const auto base = user_requests(config.workload, seed, u, 1);
    ASSERT_FALSE(base.empty());
    for (const auto& r : base) ASSERT_NE(r.kind, RequestKind::kPostWrite);
    for (const auto& r : flash_requests(config.workload, config.faults.scenario,
                                        config.faults.seed, u, 1)) {
      if (r.kind != RequestKind::kPostWrite) continue;
      ++writes;
      if (const auto next = meet.next_at_or_after(r.time))
        latency_sum += *next - r.time + 2 * config.crypto_op_cost;
      else
        ++unserved;
    }
  }
  ASSERT_GT(writes, unserved);
  const auto report = run_serving_study(d, schedules, cohort, seed, config);
  EXPECT_EQ(report.write.requests, writes);
  EXPECT_EQ(report.write.unserved, unserved);
  EXPECT_EQ(report.write.latency.sum(), latency_sum);
  // Local durability would charge the crypto ops alone.
  EXPECT_GT(report.write.latency.sum(),
            static_cast<Seconds>(writes - unserved) * 2 *
                config.crypto_op_cost);
}

TEST(ServingTest, ValidateRejectsBadConfig) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0};
  ServingConfig config;
  config.crypto_op_cost = -1;
  EXPECT_THROW(run_serving_study(d, schedules, cohort, 1, config), ConfigError);
  config = {};
  config.slo = -5;
  EXPECT_THROW(run_serving_study(d, schedules, cohort, 1, config), ConfigError);
  config = {};
  const std::vector<DaySchedule> wrong(1);
  EXPECT_THROW(run_serving_study(d, wrong, cohort, 1, config), ConfigError);
  // NaN knobs fail every comparison; validate must still reject them.
  config = {};
  config.resilience.feed_min_coverage = std::nan("");
  EXPECT_THROW(validate(config), ConfigError);
  config = {};
  config.workload.requests_per_user_per_day =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate(config), ConfigError);
}

// --------------------------------------------- determinism at small scale

synth::ScaleStudyInput small_input() {
  synth::ScaleOptions options;
  options.users = 400;
  synth::ScaleInputConfig config;
  config.preset = synth::scale_preset(options);
  config.chunk_users = 128;
  return synth::build_scale_study_input(config, 20120618);
}

ServingConfig small_config() {
  ServingConfig config;
  config.replicas = 3;
  config.served_users = 24;
  config.workload.horizon_days = 7;
  config.faults.seed = 5;
  config.faults.session_no_show = 0.3;
  config.faults.session_truncate = 0.3;
  config.faults.truncate_max_fraction = 0.8;
  config.faults.relay_outages.push_back({kDaySeconds, 3 * kDaySeconds});
  return config;
}

ResiliencePolicy full_resilience() {
  ResiliencePolicy p;
  p.hedged_reads = true;
  p.stale_failover = true;
  p.degrade_feeds = true;
  return p;
}

TEST(ServingTest, BitIdenticalAcrossThreadCountsAndObservability) {
  const auto input = small_input();
  ASSERT_GE(input.cohort.size(), 24u);
  // The churn base, and a flash crowd under a resilient policy. Without
  // feeds (which reference every contact), the flash extras add read
  // targets the group table must hold too.
  auto flash = small_config();
  flash.workload.feed_fraction = 0.0;
  flash.faults.scenario = net::parse_scenario(
      "flash_crowd start=86400 end=345600 load_multiplier=4\n");
  flash.resilience = full_resilience();

  std::uint64_t base_requests = 0;
  for (const auto& config : {small_config(), flash}) {
    const auto serial = run_serving_study(input.dataset, input.schedules,
                                          input.cohort, 11, config);
    EXPECT_GT(serial.requests, base_requests);
    EXPECT_GT(serial.request_log_checksum, 0u);
    base_requests = serial.requests;

    for (const std::size_t threads : {2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      const auto parallel = run_serving_study(
          input.dataset, input.schedules, input.cohort, 11, config, &pool);
      EXPECT_EQ(parallel, serial) << threads << " threads";
    }

    const bool was_enabled = obs::enabled();
    obs::set_enabled(false);
    const auto dark = run_serving_study(input.dataset, input.schedules,
                                        input.cohort, 11, config);
    obs::set_enabled(was_enabled);
    EXPECT_EQ(dark, serial);
  }
}

TEST(ServingTest, RealizesEachReferencedProfileExactlyOnce) {
  const auto input = small_input();
  auto config = small_config();
  ASSERT_GE(input.cohort.size(), config.served_users);

  // Referenced profiles: each served user's own, its read targets, and
  // all of its contacts once it assembles a feed.
  std::set<graph::UserId> referenced;
  for (std::size_t i = 0; i < config.served_users; ++i) {
    const graph::UserId u = input.cohort[i];
    const auto contacts = input.dataset.graph.contacts(u);
    referenced.insert(u);
    if (contacts.empty()) continue;
    for (const auto& r :
         user_requests(config.workload, 11, u, contacts.size())) {
      if (r.kind == RequestKind::kProfileRead)
        referenced.insert(contacts[r.target_index % contacts.size()]);
      if (r.kind == RequestKind::kFeedAssembly)
        referenced.insert(contacts.begin(), contacts.end());
    }
  }
  ASSERT_GT(referenced.size(), config.served_users);

  // Realizations counted as MaxAv selections (one per realized group).
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter& selections =
      obs::Registry::global().counter("placement.maxav.selections");
  const auto realized = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    const std::uint64_t before = selections.value();
    run_serving_study(input.dataset, input.schedules, input.cohort, 11,
                      config, &pool);
    return selections.value() - before;
  };
  for (const std::size_t threads : {1u, 4u})
    EXPECT_EQ(realized(threads), referenced.size()) << threads << " threads";

  // Writes only touch the served users' own groups.
  config.workload.read_fraction = 0.0;
  config.workload.feed_fraction = 0.0;
  for (const std::size_t threads : {1u, 4u})
    EXPECT_EQ(realized(threads), config.served_users)
        << threads << " threads, writes only";
  obs::set_enabled(was_enabled);
}

TEST(ServingTest, SloMissesMonotoneUnderScaledFaults) {
  const auto input = small_input();
  auto config = small_config();
  const net::FaultPlan base = config.faults;

  std::uint64_t prev_misses = 0;
  std::uint64_t prev_unserved = 0;
  bool first = true;
  std::uint64_t requests = 0;
  for (const double f : {0.0, 0.3, 0.7, 1.0}) {
    config.faults = net::scaled(base, f);
    const auto report = run_serving_study(input.dataset, input.schedules,
                                          input.cohort, 11, config);
    if (first) {
      requests = report.requests;
      first = false;
    }
    // The workload is independent of the fault plan...
    EXPECT_EQ(report.requests, requests);
    // ...and nested realizations degrade exactly monotonically.
    EXPECT_GE(report.slo_misses, prev_misses) << "intensity " << f;
    EXPECT_GE(report.unserved, prev_unserved) << "intensity " << f;
    prev_misses = report.slo_misses;
    prev_unserved = report.unserved;
  }
  EXPECT_GT(prev_misses, 0u);
}

TEST(ServingTest, NodeOutageBeyondGroupSize) {
  // Node outages index a realized group's members (owner 0, then the
  // selection). An index past every group's size names nobody: reads and
  // writes alike ignore it, so the run equals the run without it.
  const auto input = small_input();
  const auto base = run_serving_study(input.dataset, input.schedules,
                                      input.cohort, 11, small_config());
  auto beyond = small_config();
  beyond.faults.node_outages.push_back({7, kDaySeconds, 2 * kDaySeconds});
  EXPECT_EQ(run_serving_study(input.dataset, input.schedules, input.cohort,
                              11, beyond),
            base);

  // An in-range outage takes every group's first replica down for a day.
  auto in_range = small_config();
  in_range.faults.node_outages.push_back({1, kDaySeconds, 2 * kDaySeconds});
  const auto serial = run_serving_study(input.dataset, input.schedules,
                                        input.cohort, 11, in_range);
  EXPECT_NE(serial.request_log_checksum, base.request_log_checksum);
  util::ThreadPool pool(4);
  EXPECT_EQ(run_serving_study(input.dataset, input.schedules, input.cohort,
                              11, in_range, &pool),
            serial);
}

TEST(ServingTest, PublishesFaultCountersPerRealizedGroup) {
  const auto input = small_input();
  const char* const names[] = {
      "net.fault.messages_dropped", "net.fault.jitter_applied",
      "net.fault.sessions_skipped", "net.fault.sessions_truncated",
      "net.fault.outage_cuts",      "net.fault.relay_blocked",
      "net.fault.scenario_windows", "net.fault.session_pieces"};
  const bool was_enabled = obs::enabled();
  const auto run = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    return run_serving_study(input.dataset, input.schedules, input.cohort, 11,
                             small_config(), &pool);
  };
  std::vector<ServingReport> reports;
  obs::set_enabled(true);
  const auto totals = [&](std::size_t threads) {
    std::vector<std::uint64_t> before;
    for (const char* name : names)
      before.push_back(obs::Registry::global().counter(name).value());
    reports.push_back(run(threads));
    std::vector<std::uint64_t> added;
    for (std::size_t i = 0; i < std::size(names); ++i)
      added.push_back(obs::Registry::global().counter(names[i]).value() -
                      before[i]);
    return added;
  };
  const auto serial = totals(1);
  EXPECT_EQ(totals(4), serial);
  EXPECT_GT(serial[2], 0u);  // sessions_skipped
  EXPECT_GT(serial[3], 0u);  // sessions_truncated
  EXPECT_GT(serial[7], 0u);  // session_pieces
  // Observability is write-only: the same run with it off is identical.
  obs::set_enabled(false);
  EXPECT_EQ(run(1), reports[0]);
  EXPECT_EQ(run(4), reports[1]);
  EXPECT_EQ(reports[1], reports[0]);
  obs::set_enabled(was_enabled);
}

TEST(ServingTest, SessionPiecesCountEachRealizationOnce) {
  // Writes only, no resilience policy: every session piece serving
  // realizes comes from a group's faulted injector, and a writer's durable
  // surface reuses its group's runs, so serve.session_pieces equals
  // net.fault.session_pieces. A resilient run keeps its advertised
  // surfaces as daily schedules and realizes no further session, so the
  // two stay equal. The pieces the group table stores
  // (serve.surface_pieces) are as thread-count invariant, and the
  // advertised surfaces add to them.
  const auto input = small_input();
  auto config = small_config();
  config.workload.read_fraction = 0.0;
  config.workload.feed_fraction = 0.0;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& serve = obs::Registry::global().counter("serve.session_pieces");
  obs::Counter& fault =
      obs::Registry::global().counter("net.fault.session_pieces");
  obs::Counter& surface =
      obs::Registry::global().counter("serve.surface_pieces");
  const auto added = [&](const ServingConfig& c, std::size_t threads) {
    util::ThreadPool pool(threads);
    const std::uint64_t serve_before = serve.value();
    const std::uint64_t fault_before = fault.value();
    const std::uint64_t surface_before = surface.value();
    const auto report = run_serving_study(input.dataset, input.schedules,
                                          input.cohort, 11, c, &pool);
    EXPECT_GT(report.write.requests, 0u);
    return std::tuple{serve.value() - serve_before,
                      fault.value() - fault_before,
                      surface.value() - surface_before};
  };
  const auto serial = added(config, 1);
  const auto [serial_pieces, serial_fault, serial_surface] = serial;
  EXPECT_GT(serial_pieces, 0u);
  EXPECT_EQ(serial_pieces, serial_fault);
  EXPECT_GT(serial_surface, 0u);
  EXPECT_EQ(added(config, 4), serial);

  config.resilience = full_resilience();
  const auto resilient = added(config, 4);
  const auto [pieces, fault_pieces, surface_pieces] = resilient;
  EXPECT_EQ(fault_pieces, serial_fault);
  EXPECT_EQ(pieces, fault_pieces);
  EXPECT_GT(surface_pieces, serial_surface);
  EXPECT_EQ(added(config, 1), resilient);
  obs::set_enabled(was_enabled);
}

TEST(ServingTest, LatencyObsMatchesReport) {
  // The serve.latency.* obs histograms are published once per run from
  // the reduced report: each run adds exactly the report's per-kind
  // buckets, count and sum, at every thread count.
  const auto input = small_input();
  const auto config = small_config();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto histogram = [](const char* name) -> obs::Histogram& {
    return obs::Registry::global().histogram(
        name, LatencyHistogram::default_bounds());
  };
  struct Totals {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count;
    std::int64_t sum;
  };
  const auto totals = [](const obs::Histogram& h) {
    Totals t{{}, h.count(), h.sum()};
    for (std::size_t i = 0; i <= h.bounds().size(); ++i)
      t.buckets.push_back(h.bucket_count(i));
    return t;
  };
  const std::pair<obs::Histogram*, const KindStats ServingReport::*>
      kinds[] = {{&histogram("serve.latency.read"), &ServingReport::read},
                 {&histogram("serve.latency.feed"), &ServingReport::feed},
                 {&histogram("serve.latency.write"), &ServingReport::write}};
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::vector<Totals> before;
    for (const auto& kind : kinds) before.push_back(totals(*kind.first));
    util::ThreadPool pool(threads);
    const auto report = run_serving_study(input.dataset, input.schedules,
                                          input.cohort, 11, config, &pool);
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      const LatencyHistogram& want = (report.*kinds[k].second).latency;
      EXPECT_GT(want.count(), 0u) << k;
      const Totals after = totals(*kinds[k].first);
      ASSERT_EQ(after.buckets.size(), want.buckets().size());
      for (std::size_t i = 0; i < after.buckets.size(); ++i)
        EXPECT_EQ(after.buckets[i] - before[k].buckets[i], want.buckets()[i])
            << "kind " << k << " bucket " << i;
      EXPECT_EQ(after.count - before[k].count, want.count()) << k;
      EXPECT_EQ(after.sum - before[k].sum, want.sum()) << k;
    }
  }
  obs::set_enabled(was_enabled);
}

// ------------------------------------------------------------ resilience

/// The per-request outcomes two reports share when the resilience policy
/// never fires: the request log plus every latency/SLO aggregate (the
/// effort counters legitimately differ — hedges are launched and retries
/// scheduled even when they never win).
void expect_same_outcomes(const ServingReport& a, const ServingReport& b) {
  EXPECT_EQ(a.request_log_checksum, b.request_log_checksum);
  EXPECT_EQ(a.read, b.read);
  EXPECT_EQ(a.feed, b.feed);
  EXPECT_EQ(a.write, b.write);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.unserved, b.unserved);
  EXPECT_EQ(a.slo_misses, b.slo_misses);
}

TEST(ResilienceTest, ZeroPlanBitIdentityAcrossThreadCounts) {
  const auto input = small_input();
  // Zero fault plan under ConRep, and a relay outage under UnconRep: in
  // both regimes every resilience mechanism must be a no-op on the
  // request log (each alternative arrival is provably no earlier than
  // the primary when sessions are unfaulted).
  for (const bool unconrep : {false, true}) {
    ServingConfig config;
    config.replicas = 3;
    config.served_users = 24;
    config.workload.horizon_days = 7;
    if (unconrep) {
      config.connectivity = placement::Connectivity::kUnconRep;
      config.faults.relay_outages.push_back({kDaySeconds, 3 * kDaySeconds});
    }
    const auto naive = run_serving_study(input.dataset, input.schedules,
                                         input.cohort, 11, config);

    config.resilience = full_resilience();
    const auto resilient = run_serving_study(input.dataset, input.schedules,
                                             input.cohort, 11, config);
    expect_same_outcomes(resilient, naive);
    EXPECT_EQ(resilient.resilience.hedge_wins, 0u);
    EXPECT_EQ(resilient.resilience.stale_served, 0u);
    EXPECT_EQ(resilient.resilience.degraded_feeds, 0u);
    EXPECT_DOUBLE_EQ(resilient.resilience.feed_coverage_mean(), 1.0);

    for (const std::size_t threads : {2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      const auto parallel = run_serving_study(
          input.dataset, input.schedules, input.cohort, 11, config, &pool);
      EXPECT_EQ(parallel, resilient) << threads << " threads";
    }
  }
}

/// The composite scenario the metamorphic tests sweep: all three macro
/// event classes layered on the small_config churn base.
ServingConfig composite_config() {
  auto config = small_config();
  config.faults.scenario = net::parse_scenario(
      "regional_outage regions=2 region=0 start=86400 end=259200 "
      "participation=1\n"
      "flash_crowd start=172800 end=345600 load_multiplier=3\n"
      "churn_burst start=259200 end=432000 no_show=0.8 participation=0.9\n");
  return config;
}

TEST(ResilienceTest, SloMissesMonotoneInCompositeIntensity) {
  const auto input = small_input();
  const auto base = composite_config();

  for (const std::uint64_t seed : {5u, 11u, 23u}) {
    for (const bool resilient : {false, true}) {
      auto config = base;
      if (resilient) config.resilience = full_resilience();
      std::uint64_t prev_misses = 0, prev_requests = 0;
      bool first = true;
      for (const double f : {0.0, 0.4, 0.7, 1.0}) {
        config.faults = net::scaled(base.faults, f);
        if (resilient) config.resilience = full_resilience();
        const auto report = run_serving_study(input.dataset, input.schedules,
                                              input.cohort, seed, config);
        if (!first) {
          // Flash extras nest (prefix subsets), so the request count is
          // monotone; nested realizations make the misses monotone.
          EXPECT_GE(report.requests, prev_requests)
              << "seed " << seed << " f " << f;
          EXPECT_GE(report.slo_misses, prev_misses)
              << "seed " << seed << " f " << f << " resilient " << resilient;
        }
        prev_misses = report.slo_misses;
        prev_requests = report.requests;
        first = false;
      }
      EXPECT_GT(prev_misses, 0u);
    }
  }
}

TEST(ResilienceTest, ResilientNeverWorseThanNaiveAtAnyIntensity) {
  const auto input = small_input();
  const auto base = composite_config();

  for (const std::uint64_t seed : {5u, 11u, 23u}) {
    bool helped = false;
    for (const double f : {0.0, 0.5, 1.0}) {
      auto config = base;
      config.faults = net::scaled(base.faults, f);
      const auto naive = run_serving_study(input.dataset, input.schedules,
                                           input.cohort, seed, config);
      config.resilience = full_resilience();
      const auto resilient = run_serving_study(input.dataset, input.schedules,
                                               input.cohort, seed, config);
      // Same workload (the flash extras depend on the plan, not the
      // policy)...
      EXPECT_EQ(resilient.requests, naive.requests) << "seed " << seed;
      // ...and every mechanism only ever races *earlier* alternatives.
      EXPECT_LE(resilient.slo_misses, naive.slo_misses)
          << "seed " << seed << " f " << f;
      EXPECT_LE(resilient.unserved, naive.unserved)
          << "seed " << seed << " f " << f;
      if (f == 0.0) expect_same_outcomes(resilient, naive);
      if (resilient.slo_misses < naive.slo_misses) helped = true;
    }
    EXPECT_TRUE(helped) << "seed " << seed;
  }
}

TEST(ResilienceTest, DegradedFeedsReportPartialCoverage) {
  const auto input = small_input();
  auto config = composite_config();
  config.faults = net::scaled(config.faults, 1.0);
  config.resilience = full_resilience();
  const auto report = run_serving_study(input.dataset, input.schedules,
                                        input.cohort, 11, config);
  // Under the full composite scenario the policy actually fires.
  EXPECT_GT(report.resilience.hedges, 0u);
  EXPECT_GT(report.resilience.retries, 0u);
  EXPECT_GT(report.resilience.feed_coverage_count, 0u);
  EXPECT_LE(report.resilience.feed_coverage_mean(), 1.0);
  EXPECT_GT(report.resilience.feed_coverage_mean(), 0.0);
}

// --------------------------------------------------------------- golden

/// One cell of the golden grid: the request-log checksum plus every
/// integer field of ResilienceStats and RegimeStats. The checksum alone
/// cannot show where a resilient feed stops fetching friends; the retry
/// and hedge totals do.
struct GoldenCell {
  const char* name;
  std::uint64_t checksum;
  // retries, hedges, hedge_wins, stale_served, degraded_feeds,
  // feed_coverage_count
  std::array<std::uint64_t, 6> resilience;
  // groups, replica_holders, storekeepers, online_seconds, lookups,
  // lookup_hops, locality_hits
  std::array<std::uint64_t, 7> regime;
};

struct GoldenCase {
  std::string name;
  ServingConfig config;
};

struct NamedPolicy {
  const char* name;
  ResiliencePolicy policy;
};

std::vector<NamedPolicy> golden_policies() {
  ResiliencePolicy degrade;
  degrade.degrade_feeds = true;
  ResiliencePolicy hedged;
  hedged.hedged_reads = true;
  return {{"naive", {}},
          {"full", full_resilience()},
          {"degrade", degrade},
          {"hedged", hedged}};
}

/// kReplicaGroup: {ConRep, UnconRep} x {zero plan, composite churn} x
/// {naive, full, degrade_feeds only, hedged_reads only}.
std::vector<GoldenCase> replica_group_cases() {
  std::vector<GoldenCase> cases;
  for (const auto connectivity :
       {placement::Connectivity::kConRep, placement::Connectivity::kUnconRep})
    for (const bool churn : {false, true})
      for (const auto& p : golden_policies()) {
        auto config = composite_config();
        if (!churn) config.faults = {};
        config.connectivity = connectivity;
        config.resilience = p.policy;
        cases.push_back(
            {std::string(connectivity == placement::Connectivity::kConRep
                             ? "conrep"
                             : "unconrep") +
                 (churn ? "_churn_" : "_zero_") + p.name,
             config});
      }
  return cases;
}

/// Plain DHT, social DHT and super-peer under ConRep: {zero plan,
/// small_config churn} x {naive, full}.
std::vector<GoldenCase> storage_regime_cases() {
  struct Regime {
    const char* name;
    placement::StorageRegime regime;
    bool socially_aware;
  };
  const Regime regimes[] = {
      {"plain_dht", placement::StorageRegime::kSocialDht, false},
      {"social_dht", placement::StorageRegime::kSocialDht, true},
      {"super_peer", placement::StorageRegime::kSuperPeer, true}};
  const auto policies = golden_policies();
  std::vector<GoldenCase> cases;
  for (const Regime& regime : regimes)
    for (const bool churn : {false, true})
      for (const auto& p : std::span(policies).first(2)) {
        auto config = small_config();
        if (!churn) config.faults = {};
        config.regime = regime.regime;
        config.resilience = p.policy;
        config.social_dht.replication = 3;
        config.social_dht.hop_cost = 5;
        config.social_dht.socially_aware = regime.socially_aware;
        config.super_peer.volunteer_threshold = 0.05;
        config.super_peer.target_availability = 0.7;
        cases.push_back({std::string(regime.name) +
                             (churn ? "_churn_" : "_zero_") + p.name,
                         config});
      }
  return cases;
}

void expect_golden(std::span<const GoldenCase> cases,
                   std::span<const GoldenCell> cells) {
  const auto input = small_input();
  ASSERT_EQ(cases.size(), cells.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCell& want = cells[i];
    ASSERT_EQ(cases[i].name, want.name);
    const auto r = run_serving_study(input.dataset, input.schedules,
                                     input.cohort, 11, cases[i].config);
    const ResilienceStats& res = r.resilience;
    const RegimeStats& reg = r.regime;
    const std::array<std::uint64_t, 6> got_res{
        res.retries,      res.hedges,         res.hedge_wins,
        res.stale_served, res.degraded_feeds, res.feed_coverage_count};
    const std::array<std::uint64_t, 7> got_reg{
        reg.groups,  reg.replica_holders, reg.storekeepers, reg.online_seconds,
        reg.lookups, reg.lookup_hops,     reg.locality_hits};
    EXPECT_EQ(r.request_log_checksum, want.checksum) << want.name;
    EXPECT_EQ(got_res, want.resilience) << want.name;
    EXPECT_EQ(got_reg, want.regime) << want.name;
  }
}

TEST(ServingGolden, ReplicaGroupGrid) {
  static constexpr GoldenCell kCells[] = {
      {"conrep_zero_naive", 16833885649032020156ULL,
       {0, 0, 0, 0, 0, 173},
       {24, 72, 0, 7948703, 0, 0, 0}},
      {"conrep_zero_full", 16833885649032020156ULL,
       {1572, 501, 0, 0, 0, 173},
       {24, 72, 0, 7948703, 0, 0, 0}},
      {"conrep_zero_degrade", 16833885649032020156ULL,
       {1572, 0, 0, 0, 0, 173},
       {24, 72, 0, 7948703, 0, 0, 0}},
      {"conrep_zero_hedged", 16833885649032020156ULL,
       {1572, 501, 0, 0, 0, 173},
       {24, 72, 0, 7948703, 0, 0, 0}},
      {"conrep_churn_naive", 15122330433636683981ULL,
       {0, 0, 0, 0, 0, 257},
       {24, 72, 0, 3836465, 0, 0, 0}},
      {"conrep_churn_full", 2278808565848835688ULL,
       {4805, 1842, 1082, 388, 36, 259},
       {24, 72, 0, 3836465, 0, 0, 0}},
      {"conrep_churn_degrade", 4906853666094637121ULL,
       {5584, 0, 0, 0, 152, 259},
       {24, 72, 0, 3836465, 0, 0, 0}},
      {"conrep_churn_hedged", 3476939540082818205ULL,
       {4805, 1842, 1294, 0, 0, 259},
       {24, 72, 0, 3836465, 0, 0, 0}},
      {"unconrep_zero_naive", 2412375256616140082ULL,
       {0, 0, 0, 0, 0, 177},
       {24, 72, 0, 7965531, 0, 0, 0}},
      {"unconrep_zero_full", 2412375256616140082ULL,
       {0, 0, 0, 0, 0, 177},
       {24, 72, 0, 7965531, 0, 0, 0}},
      {"unconrep_zero_degrade", 2412375256616140082ULL,
       {0, 0, 0, 0, 0, 177},
       {24, 72, 0, 7965531, 0, 0, 0}},
      {"unconrep_zero_hedged", 2412375256616140082ULL,
       {0, 0, 0, 0, 0, 177},
       {24, 72, 0, 7965531, 0, 0, 0}},
      {"unconrep_churn_naive", 10995805285133075957ULL,
       {0, 0, 0, 0, 0, 263},
       {24, 72, 0, 3879028, 0, 0, 0}},
      {"unconrep_churn_full", 11611341317540662164ULL,
       {1734, 649, 338, 155, 12, 263},
       {24, 72, 0, 3879028, 0, 0, 0}},
      {"unconrep_churn_degrade", 18270581399085884166ULL,
       {1972, 0, 0, 0, 68, 263},
       {24, 72, 0, 3879028, 0, 0, 0}},
      {"unconrep_churn_hedged", 10402669198819205085ULL,
       {1734, 649, 400, 0, 0, 263},
       {24, 72, 0, 3879028, 0, 0, 0}},
  };
  expect_golden(replica_group_cases(), kCells);
}

TEST(ServingGolden, StorageRegimeGrid) {
  static constexpr GoldenCell kCells[] = {
      {"plain_dht_zero_naive", 9805829087959849818ULL,
       {0, 0, 0, 0, 0, 166},
       {24, 72, 0, 4296866, 1826, 9433, 16}},
      {"plain_dht_zero_full", 9805829087959849818ULL,
       {3558, 1160, 0, 0, 0, 166},
       {24, 72, 0, 4296866, 1826, 9433, 16}},
      {"plain_dht_churn_naive", 12444232086462883617ULL,
       {0, 0, 0, 0, 0, 165},
       {24, 72, 0, 2819286, 1826, 9433, 16}},
      {"plain_dht_churn_full", 3763086306759323500ULL,
       {4035, 1373, 369, 189, 15, 166},
       {24, 72, 0, 2819286, 1826, 9433, 16}},
      {"social_dht_zero_naive", 7750672892755861965ULL,
       {0, 0, 0, 0, 0, 163},
       {24, 72, 0, 4291980, 1826, 8079, 258}},
      {"social_dht_zero_full", 7750672892755861965ULL,
       {3667, 1192, 0, 0, 0, 163},
       {24, 72, 0, 4291980, 1826, 8079, 258}},
      {"social_dht_churn_naive", 12310276447160281015ULL,
       {0, 0, 0, 0, 0, 163},
       {24, 72, 0, 2812111, 1826, 8079, 258}},
      {"social_dht_churn_full", 471312739688312786ULL,
       {4120, 1395, 306, 217, 20, 163},
       {24, 72, 0, 2812111, 1826, 8079, 258}},
      {"super_peer_zero_naive", 15635853211066610118ULL,
       {0, 0, 0, 0, 0, 175},
       {24, 190, 118, 10156069, 0, 0, 0}},
      {"super_peer_zero_full", 15635853211066610118ULL,
       {1084, 335, 0, 0, 0, 175},
       {24, 190, 118, 10156069, 0, 0, 0}},
      {"super_peer_churn_naive", 5970320494152447861ULL,
       {0, 0, 0, 0, 0, 173},
       {24, 190, 118, 7638418, 0, 0, 0}},
      {"super_peer_churn_full", 16918474156519730204ULL,
       {1925, 685, 274, 152, 9, 175},
       {24, 190, 118, 7638418, 0, 0, 0}},
  };
  expect_golden(storage_regime_cases(), kCells);
}

TEST(ServingTest, ServedUsersTruncatesTheCohort) {
  const auto input = small_input();
  ServingConfig config;
  config.replicas = 2;
  config.served_users = 5;
  config.workload.horizon_days = 3;
  const auto report = run_serving_study(input.dataset, input.schedules,
                                        input.cohort, 3, config);
  EXPECT_EQ(report.served_users, 5u);
  EXPECT_EQ(report.horizon, 3 * kDaySeconds);
  EXPECT_GT(report.goodput_rps(), 0.0);
}

}  // namespace
}  // namespace dosn::serve
