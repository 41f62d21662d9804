// Unit tests for the update-propagation-delay metric, including the paper's
// worked example (Fig 1: 48h - d1 - d2 across a three-replica chain).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "metrics/delay.hpp"
#include "pair_delay_oracle.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dosn::metrics {
namespace {

constexpr Seconds kH = 3600;
constexpr auto kDirect = interval::RendezvousMode::kDirect;
constexpr auto kRelay = interval::RendezvousMode::kRelay;
using interval::pair_delay;

DaySchedule window(Seconds start_h, Seconds end_h) {
  return DaySchedule(interval::IntervalSet::single(start_h * kH, end_h * kH));
}

TEST(EdgeDelay, ConRepSingleIntervalIsDayMinusOverlap) {
  const auto a = window(8, 14);
  const auto b = window(12, 18);  // overlap d = 2h
  EXPECT_EQ(pair_delay(a, b, kDirect), 22 * kH);
  EXPECT_EQ(pair_delay(b, a, kDirect), 22 * kH);
}

TEST(EdgeDelay, ConRepNoOverlapNoEdge) {
  EXPECT_EQ(pair_delay(window(8, 10), window(12, 14), kDirect), std::nullopt);
}

TEST(EdgeDelay, UnconRepBridgesDisjointSchedules) {
  // Via the relay: post at 08:00 (worst), receiver online at 12:00 -> 4h...
  // worst over the source window [8,10): posting at 08:00 waits 4h.
  EXPECT_EQ(pair_delay(window(8, 10), window(12, 14), kRelay), 4 * kH);
}

TEST(EdgeDelay, EmptyScheduleNoEdge) {
  EXPECT_EQ(pair_delay(DaySchedule{}, window(0, 1), kDirect), std::nullopt);
  EXPECT_EQ(pair_delay(window(0, 1), DaySchedule{}, kRelay), std::nullopt);
}

TEST(EdgeDelay, AlwaysOnlinePairIsInstant) {
  EXPECT_EQ(pair_delay(DaySchedule::always(), DaySchedule::always(), kDirect),
            0);
}

TEST(Delay, PaperFigureOneChain) {
  // v1: 06-12, v2: 10-14, v3: 13-17.
  // d1 = overlap(v1,v2) = 2h  -> edge 22h.
  // d2(paper) = gap concept; edge(v2,v3) = 24 - overlap(v2,v3) = 23h.
  // Worst pair v1->v3 has no direct edge (06-12 vs 13-17 disjoint):
  // shortest path 22 + 23 = 45h = "48 - d1 - d2" with d1=2h, d2=1h.
  const auto v1 = window(6, 12);
  const auto v2 = window(10, 14);
  const auto v3 = window(13, 17);
  // Owner participates too in general; make the owner's schedule v1's to
  // model the paper's pure three-replica example.
  const auto r = update_propagation_delay(
      v1, std::vector<DaySchedule>{v2, v3}, Connectivity::kConRep);
  EXPECT_TRUE(r.fully_connected);
  EXPECT_EQ(r.nodes, 3u);
  EXPECT_EQ(r.actual, 45 * kH);
}

TEST(Delay, SingleNodeIsZero) {
  const auto r =
      update_propagation_delay(window(8, 10), {}, Connectivity::kConRep);
  EXPECT_EQ(r.actual, 0);
  EXPECT_EQ(r.nodes, 1u);
  EXPECT_TRUE(r.fully_connected);
}

TEST(Delay, EmptyOwnerWithReplicas) {
  std::vector<DaySchedule> reps{window(8, 12), window(10, 14)};
  const auto r =
      update_propagation_delay(DaySchedule{}, reps, Connectivity::kConRep);
  EXPECT_EQ(r.nodes, 2u);
  EXPECT_EQ(r.actual, 22 * kH);  // overlap 2h
}

TEST(Delay, EmptyReplicasExcluded) {
  std::vector<DaySchedule> reps{DaySchedule{}, DaySchedule{}};
  const auto r =
      update_propagation_delay(window(8, 10), reps, Connectivity::kConRep);
  EXPECT_EQ(r.nodes, 1u);
  EXPECT_EQ(r.actual, 0);
}

TEST(Delay, DisconnectedPairsFlagged) {
  // Two replicas that never overlap and no multi-hop route.
  std::vector<DaySchedule> reps{window(20, 22)};
  const auto r =
      update_propagation_delay(window(8, 10), reps, Connectivity::kConRep);
  EXPECT_FALSE(r.fully_connected);
}

TEST(Delay, MultiHopShorterThanDirect) {
  // a: 00-02, b: 01-13, c: 12-14. Direct a-c never overlaps; via b the
  // path costs (24-1) + (24-1) = 46h. UnconRep relay direct: worst wait
  // from a (post at 02:00 closure) to c (next online 12:00) = 10h.
  const auto a = window(0, 2);
  const auto b = window(1, 13);
  const auto c = window(12, 14);
  const auto conrep = update_propagation_delay(
      a, std::vector<DaySchedule>{b, c}, Connectivity::kConRep);
  const auto unconrep = update_propagation_delay(
      a, std::vector<DaySchedule>{b, c}, Connectivity::kUnconRep);
  EXPECT_TRUE(conrep.fully_connected);
  EXPECT_GT(conrep.actual, unconrep.actual);
}

TEST(Delay, UnconRepNeverExceedsConRep) {
  // On identical configurations the relay can only help: check a few
  // hand-built cases.
  const std::vector<std::vector<DaySchedule>> cases{
      {window(8, 12), window(11, 15), window(14, 18)},
      {window(0, 3), window(6, 9), window(12, 15)},
      {window(5, 6), window(5, 7), window(22, 23)},
  };
  for (const auto& reps : cases) {
    const auto owner = window(7, 9);
    const auto con =
        update_propagation_delay(owner, reps, Connectivity::kConRep);
    const auto uncon =
        update_propagation_delay(owner, reps, Connectivity::kUnconRep);
    if (con.fully_connected) {
      EXPECT_LE(uncon.actual, con.actual);
    }
  }
}

TEST(Delay, MoreReplicasCannotReduceWorstCase) {
  // The paper's non-intuitive finding: the delay metric grows (or stays)
  // as replicas are added, since the diameter is a maximum.
  const auto owner = window(8, 12);
  std::vector<DaySchedule> reps;
  Seconds prev = 0;
  for (const auto& add :
       {window(11, 15), window(14, 18), window(17, 21)}) {
    reps.push_back(add);
    const auto r =
        update_propagation_delay(owner, reps, Connectivity::kConRep);
    EXPECT_GE(r.actual, prev);
    prev = r.actual;
  }
}

TEST(WorstObservedDelay, BoundedByActualAndOnlineTime) {
  const auto reader = window(10, 12);
  // Actual delay 30h: reader online at most 2h/day => observed <= 4h
  // (two partial days) and <= actual.
  const Seconds actual = 30 * kH;
  const Seconds obs = worst_observed_delay(reader, actual);
  EXPECT_LE(obs, actual);
  EXPECT_LE(obs, 2 * 2 * kH);
  EXPECT_GT(obs, 0);
}

TEST(WorstObservedDelay, ZeroCases) {
  EXPECT_EQ(worst_observed_delay(DaySchedule{}, 10 * kH), 0);
  EXPECT_EQ(worst_observed_delay(window(1, 2), 0), 0);
}

TEST(WorstObservedDelay, FullWindowWhenDelaySpansIt) {
  // Reader online 10-12; delay of exactly 24h covers the whole window once.
  EXPECT_EQ(worst_observed_delay(window(10, 12), 24 * kH), 2 * kH);
}

// A reader of `pieces` pieces from 2 * pieces distinct sorted boundaries in
// [0, kDaySeconds], so no two pieces touch; the first boundary is pinned to
// 0 and the last to kDaySeconds a quarter of the time each.
DaySchedule random_reader(util::Rng& rng, std::int64_t pieces) {
  std::vector<Seconds> cuts;
  while (cuts.size() < static_cast<std::size_t>(2 * pieces)) {
    const Seconds c = rng.range(0, interval::kDaySeconds);
    if (std::find(cuts.begin(), cuts.end(), c) == cuts.end())
      cuts.push_back(c);
  }
  std::sort(cuts.begin(), cuts.end());
  if (pieces > 0 && rng.chance(0.25)) cuts.front() = 0;
  if (pieces > 0 && rng.chance(0.25)) cuts.back() = interval::kDaySeconds;
  interval::IntervalSet set;
  for (std::size_t i = 0; i < cuts.size(); i += 2)
    set.add(cuts[i], cuts[i + 1]);
  return DaySchedule(std::move(set));
}

// The library's linear sweep against the quadratic oracle (one window scan
// per piece end) at every delay where the window's cut can change shape:
// zero and one second, each piece length and each circular gap, one day
// give or take a second, and multi-day delays with and without a
// remainder.
TEST(WorstObservedDelay, LinearSweepMatchesQuadraticOracle) {
  util::Rng rng(0x0b5e);
  std::vector<DaySchedule> readers{
      DaySchedule{}, DaySchedule::always(), window(0, 1), window(23, 24),
      window(10, 12),
      DaySchedule(interval::IntervalSet::single(0, interval::kDaySeconds - 1)),
      DaySchedule(interval::IntervalSet::single(1, interval::kDaySeconds))};
  for (int round = 0; round < 3000; ++round)
    readers.push_back(random_reader(rng, rng.range(0, 12)));

  for (const DaySchedule& reader : readers) {
    const auto pieces = reader.set().pieces();
    std::vector<Seconds> delays{0,
                                1,
                                interval::kDaySeconds - 1,
                                interval::kDaySeconds,
                                interval::kDaySeconds + 1,
                                2 * interval::kDaySeconds + kH,
                                3 * interval::kDaySeconds};
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      delays.push_back(pieces[i].length());
      const Seconds next = i + 1 < pieces.size()
                               ? pieces[i + 1].start
                               : pieces.front().start + interval::kDaySeconds;
      delays.push_back(next - pieces[i].end);
    }
    for (const Seconds d : delays)
      ASSERT_EQ(worst_observed_delay(reader, d),
                oracle::worst_observed_delay(reader, d))
          << "reader " << reader.to_string() << " delay " << d;
  }
}

TEST(Delay, ObservedNeverExceedsActual) {
  const auto owner = window(6, 10);
  std::vector<DaySchedule> reps{window(9, 11), window(10, 12)};
  const auto r =
      update_propagation_delay(owner, reps, Connectivity::kConRep);
  EXPECT_LE(r.observed, r.actual);
  EXPECT_GT(r.observed, 0);
}

// --- incremental prefix evaluation -------------------------------------

DaySchedule random_schedule(util::Rng& rng) {
  // 0..3 pieces; zero pieces = an empty (never-online) schedule, which must
  // be recorded but skipped as a participant.
  interval::IntervalSet s;
  const auto pieces = rng.range(0, 3);
  for (Seconds p = 0; p < pieces; ++p) {
    const Seconds start = rng.range(0, interval::kDaySeconds - 7200);
    const Seconds len = rng.range(600, 6 * kH);
    s.add(start, std::min(start + len, interval::kDaySeconds));
  }
  return DaySchedule(std::move(s));
}

TEST(IncrementalGroupDelay, MatchesBatchGroupDelayOnRandomSequences) {
  util::Rng rng(0xd31a);
  for (int trial = 0; trial < 60; ++trial) {
    const auto mode = trial % 2 == 0 ? kDirect : kRelay;
    interval::PairDelayMemo memo;
    memo.reset(mode, 0);
    interval::IncrementalGroupDelay inc(mode);
    const auto n = rng.range(1, 8);
    std::vector<DaySchedule> nodes;
    nodes.reserve(static_cast<std::size_t>(n));  // the memo points into them
    for (Seconds i = 0; i < n; ++i) {
      nodes.push_back(random_schedule(rng));
      inc.push(memo.add_node(nodes.back().set().pieces()), memo);
      const auto ref = interval::oracle::group_delay(nodes, mode);
      const auto got = inc.result();
      EXPECT_EQ(got.diameter, ref.diameter);
      EXPECT_EQ(got.worst_target, ref.worst_target);
      EXPECT_EQ(got.fully_connected, ref.fully_connected);
      EXPECT_EQ(got.participants, ref.participants);
    }
  }
}

TEST(IncrementalGroupDelay, EmptyAndSingleNodeResults) {
  const DaySchedule never;
  const DaySchedule online = window(8, 10);
  interval::PairDelayMemo memo;
  memo.reset(kDirect, 0);
  interval::IncrementalGroupDelay inc(kDirect);
  EXPECT_EQ(inc.result().participants, 0u);
  // Empty: keeps its slot, never participates.
  inc.push(memo.add_node(never.set().pieces()), memo);
  EXPECT_EQ(inc.result().participants, 0u);
  inc.push(memo.add_node(online.set().pieces()), memo);
  const auto one = inc.result();
  EXPECT_EQ(one.participants, 1u);
  EXPECT_EQ(one.diameter, 0);
  EXPECT_TRUE(one.fully_connected);
  EXPECT_EQ(inc.key(1), 1u);
}

TEST(IncrementalGroupDelay, OneKernelPerUnorderedPairUnderConRep) {
  // n participants with empty schedules interleaved: kDirect edges are
  // symmetric, so each unordered pair costs the memo one kernel
  // evaluation; kRelay evaluates both directions. Empty nodes cost nothing.
  for (const auto mode : {kDirect, kRelay}) {
    interval::PairDelayMemo memo;
    memo.reset(mode, 0);
    interval::IncrementalGroupDelay inc(mode);
    std::vector<DaySchedule> nodes;
    nodes.reserve(9);  // the memo points into them
    std::uint64_t n = 0;
    for (int i = 0; i < 9; ++i) {
      if (i % 3 == 1) {
        nodes.emplace_back();
      } else {
        nodes.push_back(window(i, i + 4));
        ++n;
      }
      inc.push(memo.add_node(nodes.back().set().pieces()), memo);
      const std::uint64_t pairs = n * (n - 1);
      EXPECT_EQ(memo.edge_evaluations(),
                mode == kDirect ? pairs / 2 : pairs)
          << "n=" << n;
    }
    inc.reset(mode);
    memo.reset(mode, 0);
    EXPECT_EQ(memo.edge_evaluations(), 0u);
  }
}

TEST(PairDelayMemo, AddNodeKeepsEvaluatedEdges) {
  // Every edge is evaluated, then a node is added: the old pairs read the
  // same weights with no further kernel, and the new node's edges are
  // evaluated on first use like any other.
  util::Rng rng(0xadd0);
  for (const auto mode : {kDirect, kRelay}) {
    std::vector<DaySchedule> nodes;
    nodes.reserve(8);  // the memo points into them
    interval::PairDelayMemo memo;
    memo.reset(mode, 0);
    while (nodes.size() < 8) {
      const auto schedule = random_schedule(rng);
      if (!schedule.empty()) nodes.push_back(schedule);
    }
    std::vector<std::optional<Seconds>> weights;
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      EXPECT_EQ(memo.add_node(nodes[v].set().pieces()), v);
      const std::uint64_t before = memo.edge_evaluations();
      for (std::size_t a = 0; a < v; ++a)  // the old pairs, evaluated before
        for (std::size_t b = 0; b < v; ++b)
          EXPECT_EQ(memo.edge(a, b), weights[a * v + b]) << a << "," << b;
      EXPECT_EQ(memo.edge_evaluations(), before) << "v=" << v;

      weights.assign((v + 1) * (v + 1), std::nullopt);
      for (std::size_t a = 0; a <= v; ++a)
        for (std::size_t b = 0; b <= v; ++b) {
          weights[a * (v + 1) + b] = memo.edge(a, b);
          EXPECT_EQ(weights[a * (v + 1) + b],
                    pair_delay(nodes[a], nodes[b], mode));
        }
    }
  }
}

TEST(DelayPrefixEvaluator, MatchesBatchEvaluationAtEveryPrefix) {
  util::Rng rng(0x9e3f);
  for (const auto connectivity :
       {Connectivity::kConRep, Connectivity::kUnconRep}) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto owner = random_schedule(rng);
      DelayPrefixEvaluator inc(owner, connectivity);
      std::vector<DaySchedule> replicas;
      const auto n = rng.range(0, 7);
      for (Seconds i = 0; i <= n; ++i) {
        const auto ref =
            oracle::update_propagation_delay(owner, replicas, connectivity);
        const auto got = inc.result();
        EXPECT_EQ(got.actual, ref.actual);
        EXPECT_EQ(got.observed, ref.observed);
        EXPECT_EQ(got.fully_connected, ref.fully_connected);
        EXPECT_EQ(got.nodes, ref.nodes);
        if (i == n) break;
        replicas.push_back(random_schedule(rng));
        inc.push(replicas.back());
      }
    }
  }
}

TEST(DelayPrefixEvaluator, ResetToShorterGroupsMatchesBatch) {
  // One evaluator reused across owners, as a shard loop does: each reset()
  // follows a group of a different size and connectivity, so a shorter
  // group must not read the longer group's stale nodes.
  util::Rng rng(0x5e7a);
  DelayPrefixEvaluator inc(DaySchedule{}, Connectivity::kConRep);
  for (const std::size_t n : {6u, 2u, 7u, 0u, 3u, 1u, 5u}) {
    const auto connectivity =
        n % 2 == 0 ? Connectivity::kConRep : Connectivity::kUnconRep;
    const auto owner = random_schedule(rng);
    inc.reset(owner, connectivity);
    std::vector<DaySchedule> replicas;
    for (std::size_t i = 0; i < n; ++i) {
      replicas.push_back(random_schedule(rng));
      inc.push(replicas.back());
    }
    const auto ref =
        oracle::update_propagation_delay(owner, replicas, connectivity);
    const auto got = inc.result();
    EXPECT_EQ(got.actual, ref.actual) << "n=" << n;
    EXPECT_EQ(got.observed, ref.observed) << "n=" << n;
    EXPECT_EQ(got.fully_connected, ref.fully_connected) << "n=" << n;
    EXPECT_EQ(got.nodes, ref.nodes) << "n=" << n;
  }
}

TEST(DelayPrefixEvaluator, ObservedDelayReadsTheWorstTargetsPieces) {
  // Empty nodes keep their slots, so the worst target's slot differs from
  // its participant index; the observed delay must use that node's pieces.
  const auto owner = window(0, 4);
  DelayPrefixEvaluator inc(owner, Connectivity::kConRep);
  const std::vector<DaySchedule> replicas{DaySchedule{}, DaySchedule{},
                                          window(5, 8), window(2, 6)};
  for (const auto& r : replicas) inc.push(r);
  const auto ref =
      oracle::update_propagation_delay(owner, replicas, Connectivity::kConRep);
  const auto got = inc.result();
  EXPECT_EQ(got.nodes, 3u);
  EXPECT_EQ(got.actual, 45 * kH);  // owner -> 2-6 -> 5-8: 22h + 23h
  EXPECT_EQ(got.observed, 6 * kH);  // the 5-8 reader: 3h + 3h
  EXPECT_EQ(got.actual, ref.actual);
  EXPECT_EQ(got.observed, ref.observed);
}

}  // namespace
}  // namespace dosn::metrics
