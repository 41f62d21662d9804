// Differential tests: the replica simulator's sorted sweep over bitset
// group state against the event-queue oracle it replaced
// (replica_sim_oracle.hpp). Every ReplicaSimReport field must agree
// exactly on randomized groups that stress the ordering rules (equal-time
// transitions, midnight-adjacent sessions, equal-time updates), the bitset
// word boundaries (63/64/65/130 updates), relay outages, node failures and
// session churn.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/replica_sim.hpp"
#include "replica_sim_oracle.hpp"
#include "util/rng.hpp"

namespace dosn::net {
namespace {

using interval::Interval;
using interval::kDaySeconds;

/// Times snap to this grid so equal-time events across nodes, updates and
/// relay windows are common rather than measure-zero.
constexpr Seconds kGrid = 1800;
constexpr std::size_t kUpdateCounts[] = {0, 1, 63, 64, 65, 130};

void expect_same(const ReplicaSimReport& fast, const ReplicaSimReport& ref,
                 const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(fast.deliveries.size(), ref.deliveries.size());
  for (std::size_t u = 0; u < ref.deliveries.size(); ++u) {
    EXPECT_EQ(fast.deliveries[u].creation, ref.deliveries[u].creation) << u;
    EXPECT_EQ(fast.deliveries[u].origin, ref.deliveries[u].origin) << u;
    EXPECT_EQ(fast.deliveries[u].arrival, ref.deliveries[u].arrival) << u;
  }
  EXPECT_EQ(fast.max_delay, ref.max_delay);
  EXPECT_EQ(fast.mean_delay, ref.mean_delay);  // bit-exact, not near
  EXPECT_EQ(fast.all_delivered, ref.all_delivered);
  EXPECT_EQ(fast.empirical_availability, ref.empirical_availability);
  EXPECT_EQ(fast.events, ref.events);
}

void check(std::span<const DaySchedule> nodes,
           std::span<const UpdateSpec> updates, const ReplicaSimConfig& cfg,
           const std::string& what) {
  expect_same(simulate_replica_group(nodes, updates, cfg),
              oracle::simulate_replica_group(nodes, updates, cfg), what);
}

Seconds grid_time(util::Rng& rng, Seconds lo, Seconds hi) {
  return rng.range(lo / kGrid, hi / kGrid) * kGrid;
}

/// 0-3 daily windows on the grid. Some wrap midnight or end exactly at
/// it, so consecutive days' sessions touch (an offline and an online of
/// the same node at one instant); roughly one schedule in eight is empty.
DaySchedule random_schedule(util::Rng& rng) {
  std::vector<Interval> pieces;
  const auto count = rng.below(8) == 0 ? 0 : 1 + rng.below(3);
  for (std::uint64_t p = 0; p < count; ++p) {
    const Seconds start = grid_time(rng, 0, kDaySeconds - kGrid);
    const Seconds len = grid_time(rng, kGrid, 10 * 3600);
    if (rng.chance(0.2)) {
      pieces.push_back({kDaySeconds - len, kDaySeconds});  // ends at 24:00
    } else {
      pieces.push_back({start, start + len});  // may wrap midnight
    }
  }
  return DaySchedule::project(pieces);
}

/// `count` updates on the grid (so several share an instant), from random
/// origins, in random order.
std::vector<UpdateSpec> random_updates(util::Rng& rng, std::size_t nodes,
                                       std::size_t count, int horizon_days) {
  std::vector<UpdateSpec> updates;
  if (nodes == 0) return updates;
  const SimTime horizon = horizon_days * kDaySeconds;
  updates.reserve(count);
  for (std::size_t u = 0; u < count; ++u)
    updates.push_back({grid_time(rng, 0, horizon - kGrid),
                       static_cast<std::size_t>(rng.below(nodes))});
  return updates;
}

std::vector<OutageWindow> random_relay_outages(util::Rng& rng,
                                               int horizon_days) {
  std::vector<OutageWindow> windows;
  const SimTime horizon = horizon_days * kDaySeconds;
  const auto count = 1 + rng.below(4);
  windows.reserve(count);
  for (std::uint64_t w = 0; w < count; ++w) {
    const SimTime start = grid_time(rng, 0, horizon - kGrid);
    // Some windows run past the horizon, which the simulator clips.
    windows.push_back({start, start + grid_time(rng, 0, kDaySeconds)});
  }
  return windows;
}

std::vector<NodeFailure> random_failures(util::Rng& rng, std::size_t nodes,
                                         int horizon_days) {
  std::vector<NodeFailure> failures;
  if (nodes == 0) return failures;
  const SimTime horizon = horizon_days * kDaySeconds;
  const auto count = 1 + rng.below(3);
  for (std::uint64_t f = 0; f < count; ++f) {
    NodeFailure failure{static_cast<std::size_t>(rng.below(nodes)),
                        grid_time(rng, 0, horizon - kGrid), std::nullopt};
    if (rng.chance(0.6))  // transient
      failure.recover_at = failure.at + grid_time(rng, 0, 2 * kDaySeconds);
    failures.push_back(failure);
  }
  return failures;
}

FaultPlan churned_plan(util::Rng& rng) {
  FaultPlan plan;
  plan.seed = rng();
  plan.session_no_show = rng.uniform(0.0, 0.5);
  plan.session_truncate = rng.uniform(0.0, 0.8);
  plan.truncate_max_fraction = rng.uniform(0.0, 1.0);
  return plan;
}

struct Group {
  std::vector<DaySchedule> nodes;
  ReplicaSimConfig cfg;
};

Group random_group(util::Rng& rng, std::size_t n, Connectivity connectivity) {
  Group g;
  for (std::size_t i = 0; i < n; ++i) g.nodes.push_back(random_schedule(rng));
  g.cfg.connectivity = connectivity;
  g.cfg.horizon_days = static_cast<int>(rng.range(1, 5));
  return g;
}

TEST(ReplicaSimOracle, UpdateCountsAcrossWordBoundaries) {
  util::Rng rng(0x5eed0001);
  for (const auto connectivity :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    for (std::size_t n = 1; n <= 12; ++n) {
      for (const std::size_t count : kUpdateCounts) {
        const Group g = random_group(rng, n, connectivity);
        const auto updates =
            random_updates(rng, n, count, g.cfg.horizon_days);
        check(g.nodes, updates, g.cfg,
              "n=" + std::to_string(n) + " updates=" + std::to_string(count));
      }
    }
  }
}

TEST(ReplicaSimOracle, EmptySchedules) {
  util::Rng rng(0x5eed0002);
  ReplicaSimConfig cfg;
  check({}, {}, cfg, "no nodes");
  for (const auto connectivity :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    cfg.connectivity = connectivity;
    for (std::size_t n = 1; n <= 12; ++n) {
      // All empty, then every other node empty.
      std::vector<DaySchedule> all_empty(n);
      std::vector<DaySchedule> some_empty(n);
      for (std::size_t i = 0; i < n; i += 2)
        some_empty[i] = random_schedule(rng);
      for (const std::size_t count : kUpdateCounts) {
        const auto updates = random_updates(rng, n, count, cfg.horizon_days);
        check(all_empty, updates, cfg, "all empty n=" + std::to_string(n));
        check(some_empty, updates, cfg, "some empty n=" + std::to_string(n));
      }
    }
  }
}

TEST(ReplicaSimOracle, MidnightAdjacentSessionsAndEqualTimes) {
  // Nodes 0 and 3 are online 20:00-04:00 (one wrapped window, two pieces),
  // node 1 until midnight and node 2 from midnight, so every midnight
  // holds offlines and onlines at one instant, the wrapped nodes' own
  // included. Updates land exactly on midnights and on the 20:00 joins.
  const Interval wrap{20 * 3600, 28 * 3600};
  const Interval late{22 * 3600, kDaySeconds};
  const Interval early{0, 2 * 3600};
  const std::vector<DaySchedule> nodes{
      DaySchedule::project({&wrap, 1}), DaySchedule::project({&late, 1}),
      DaySchedule::project({&early, 1}), DaySchedule::project({&wrap, 1})};
  for (const auto connectivity :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    ReplicaSimConfig cfg;
    cfg.connectivity = connectivity;
    cfg.horizon_days = 4;
    for (const std::size_t count : kUpdateCounts) {
      std::vector<UpdateSpec> updates;
      updates.reserve(count);
      for (std::size_t u = 0; u < count; ++u) {
        const SimTime day = static_cast<SimTime>(u % 3) * kDaySeconds;
        const SimTime at = (u % 2 == 0) ? day + kDaySeconds  // midnight
                                        : day + 20 * 3600;   // a join
        updates.push_back({at, (u * 7) % nodes.size()});
      }
      check(nodes, updates, cfg, "updates=" + std::to_string(count));
    }
  }
}

TEST(ReplicaSimOracle, OverlappingRelayOutages) {
  util::Rng rng(0x5eed0003);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 1 + rng.below(12);
    Group g = random_group(rng, n, Connectivity::kUnconRep);
    g.cfg.faults.relay_outages = random_relay_outages(rng, g.cfg.horizon_days);
    const auto count = kUpdateCounts[rng.below(std::size(kUpdateCounts))];
    const auto updates = random_updates(rng, n, count, g.cfg.horizon_days);
    check(g.nodes, updates, g.cfg, "trial " + std::to_string(trial));
    // Under ConRep the same windows are inert.
    g.cfg.connectivity = Connectivity::kConRep;
    check(g.nodes, updates, g.cfg, "conrep trial " + std::to_string(trial));
  }
}

TEST(ReplicaSimOracle, CrashStopAndTransientFailures) {
  util::Rng rng(0x5eed0004);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 1 + rng.below(12);
    const auto connectivity =
        rng.chance(0.5) ? Connectivity::kConRep : Connectivity::kUnconRep;
    Group g = random_group(rng, n, connectivity);
    g.cfg.failures = random_failures(rng, n, g.cfg.horizon_days);
    const auto count = kUpdateCounts[rng.below(std::size(kUpdateCounts))];
    const auto updates = random_updates(rng, n, count, g.cfg.horizon_days);
    check(g.nodes, updates, g.cfg, "trial " + std::to_string(trial));
  }
}

TEST(ReplicaSimOracle, ChurnedFaultPlan) {
  util::Rng rng(0x5eed0005);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 1 + rng.below(12);
    const auto connectivity =
        rng.chance(0.5) ? Connectivity::kConRep : Connectivity::kUnconRep;
    Group g = random_group(rng, n, connectivity);
    g.cfg.faults = churned_plan(rng);
    const auto count = kUpdateCounts[rng.below(std::size(kUpdateCounts))];
    const auto updates = random_updates(rng, n, count, g.cfg.horizon_days);
    check(g.nodes, updates, g.cfg, "trial " + std::to_string(trial));
  }
}

TEST(ReplicaSimOracle, EverythingAtOnce) {
  // Churn, node outages, failures and relay outages layered on one group.
  util::Rng rng(0x5eed0006);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.below(13);  // 0-12 nodes
    const auto connectivity =
        rng.chance(0.5) ? Connectivity::kConRep : Connectivity::kUnconRep;
    Group g = random_group(rng, n, connectivity);
    if (rng.chance(0.7)) g.cfg.faults = churned_plan(rng);
    if (rng.chance(0.5))
      g.cfg.faults.relay_outages =
          random_relay_outages(rng, g.cfg.horizon_days);
    if (rng.chance(0.5))
      g.cfg.failures = random_failures(rng, n, g.cfg.horizon_days);
    const auto count = kUpdateCounts[rng.below(std::size(kUpdateCounts))];
    const auto updates = random_updates(rng, n, count, g.cfg.horizon_days);
    check(g.nodes, updates, g.cfg, "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace dosn::net
