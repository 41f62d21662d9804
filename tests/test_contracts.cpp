// Tests for the runtime-contract layer (util/check.hpp) and for every
// invariant it enforces across the modules: each DOSN_CHECK added by the
// correctness-tooling pass has a test here proving it actually fires on
// malformed input — a contract that cannot fire is documentation, not
// enforcement.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "graph/social_graph.hpp"
#include "interval/day_schedule.hpp"
#include "interval/interval_set.hpp"
#include "interval/packed_set.hpp"
#include "net/event_queue.hpp"
#include "net/scenario.hpp"
#include "net/social_dht.hpp"
#include "onlinetime/model.hpp"
#include "placement/policy.hpp"
#include "placement/super_peer.hpp"
#include "serve/serving.hpp"
#include "sim/evaluate.hpp"
#include "sim/study.hpp"
#include "trace/dataset.hpp"
#include "util/alias.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dosn {
namespace {

using util::ContractError;

// ---------------------------------------------------------------- macros

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(DOSN_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(DOSN_CHECK(true, "context ", 42));
}

TEST(Check, FailingCheckThrowsContractError) {
  EXPECT_THROW(DOSN_CHECK(false), ContractError);
  // ContractError is part of the dosn::Error hierarchy.
  EXPECT_THROW(DOSN_CHECK(false), Error);
}

TEST(Check, MessageCarriesExpressionLocationAndContext) {
  try {
    const int lo = 3, hi = 2;
    DOSN_CHECK(lo <= hi, "window [", lo, ", ", hi, ") is empty");
    FAIL() << "DOSN_CHECK did not throw";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lo <= hi"), std::string::npos) << what;
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("window [3, 2) is empty"), std::string::npos) << what;
  }
}

TEST(Check, DcheckMatchesBuildType) {
#ifndef NDEBUG
  EXPECT_THROW(DOSN_DCHECK(false, "debug build"), ContractError);
#else
  EXPECT_NO_THROW(DOSN_DCHECK(false, "release build"));
#endif
  EXPECT_NO_THROW(DOSN_DCHECK(true));
}

TEST(Check, UnreachableThrows) {
  EXPECT_THROW(DOSN_UNREACHABLE(), ContractError);
  try {
    DOSN_UNREACHABLE("policy kind ", 99);
    FAIL() << "DOSN_UNREACHABLE did not throw";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("policy kind 99"),
              std::string::npos);
  }
}

// -------------------------------------------------------------- interval

TEST(IntervalContracts, CanonicalFormIsRecognized) {
  using interval::Interval;
  using interval::IntervalSet;
  EXPECT_TRUE(IntervalSet{}.is_canonical());
  EXPECT_TRUE(IntervalSet({{10, 20}, {30, 40}}).is_canonical());
  // The constructor normalizes unsorted/overlapping input into canonical
  // form — the postcondition the algebra relies on.
  const IntervalSet messy({{30, 45}, {10, 20}, {15, 25}});
  EXPECT_TRUE(messy.is_canonical());
  EXPECT_EQ(messy.to_string(), "{[10,25) [30,45)}");
}

TEST(IntervalContracts, DayScheduleRejectsOutOfDaySets) {
  using interval::DaySchedule;
  using interval::IntervalSet;
  using interval::kDaySeconds;
  EXPECT_THROW(DaySchedule(IntervalSet::single(-60, 60)), ContractError);
  EXPECT_THROW(DaySchedule(IntervalSet::single(0, kDaySeconds + 1)),
               ContractError);
  EXPECT_NO_THROW(DaySchedule(IntervalSet::single(0, kDaySeconds)));
}

TEST(IntervalContracts, SortedRunUnionRejectsUnsortedRunsAndEmptyPieces) {
  using interval::Interval;
  using interval::SortedRunUnion;
  const auto build = [](std::vector<std::vector<Interval>> runs) {
    SortedRunUnion builder;
    for (const auto& run : runs) {
      builder.pieces().insert(builder.pieces().end(), run.begin(), run.end());
      builder.end_run();
    }
    return builder.build();
  };
  // Out of order inside the second run (across runs any order is fine).
  EXPECT_THROW(build({{{50, 60}}, {{30, 40}, {10, 20}}}), ContractError);
  EXPECT_THROW(build({{{10, 20}, {20, 20}}}), ContractError);  // empty piece
  EXPECT_THROW(build({{{10, 5}}}), ContractError);             // reversed
  EXPECT_NO_THROW(build({{{50, 60}}, {{10, 20}, {10, 40}}}));
}

TEST(IntervalContracts, PackedSetRejectsPiecesBeyond32Bits) {
  using interval::IntervalSet;
  using interval::PackedSet;
  constexpr interval::Seconds k2to32 = interval::Seconds{1} << 32;
  EXPECT_THROW(PackedSet{IntervalSet::single(10, k2to32).pieces()},
               ContractError);
  EXPECT_THROW(PackedSet{IntervalSet::single(-1, 10).pieces()},
               ContractError);
  // The builder's packed output carries the same check.
  interval::SortedRunUnion builder;
  builder.pieces().push_back({k2to32 - 5, k2to32});
  EXPECT_THROW(builder.build_packed(), ContractError);
  // Ending at UINT32_MAX itself fits, and the empty set has no bound.
  const PackedSet widest{IntervalSet::single(0, k2to32 - 1).pieces()};
  EXPECT_EQ(widest.measure(), k2to32 - 1);
  EXPECT_NO_THROW(PackedSet{IntervalSet{}.pieces()});
}

// ----------------------------------------------------------------- graph

TEST(GraphContracts, BuilderRejectsOutOfRangeEdge) {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 3);
  EXPECT_THROW(b.add_edge(0, 3), ContractError);
  EXPECT_THROW(b.add_edge(7, 1), ContractError);
}

TEST(GraphContracts, FromCsrAcceptsValidGraph) {
  // 0 - 1, 0 - 2 undirected: each edge stored in both rows.
  const auto g = graph::SocialGraph::from_csr(
      graph::GraphKind::kUndirected, {0, 2, 3, 4}, {1, 2, 0, 0});
  EXPECT_EQ(g.num_users(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(GraphContracts, FromCsrRejectsOutOfRangeEdgeTarget) {
  EXPECT_THROW(graph::SocialGraph::from_csr(graph::GraphKind::kUndirected,
                                            {0, 2, 3, 4}, {1, 2, 0, 9}),
               ContractError);
}

TEST(GraphContracts, FromCsrRejectsNonMonotoneOffsets) {
  EXPECT_THROW(graph::SocialGraph::from_csr(graph::GraphKind::kUndirected,
                                            {0, 3, 1, 4}, {1, 2, 0, 0}),
               ContractError);
}

TEST(GraphContracts, FromCsrRejectsDanglingOffsets) {
  // offsets.back() disagrees with the adjacency length.
  EXPECT_THROW(graph::SocialGraph::from_csr(graph::GraphKind::kUndirected,
                                            {0, 2, 3, 5}, {1, 2, 0, 0}),
               ContractError);
  // Directed graphs must supply the transposed CSR.
  EXPECT_THROW(graph::SocialGraph::from_csr(graph::GraphKind::kDirected,
                                            {0, 1, 1}, {1}),
               ContractError);
}

// ------------------------------------------------------------- placement

using placement::Connectivity;
using placement::PlacementContext;
using placement::ReplicaPolicy;
using placement::UserId;

// A policy that returns whatever selection it is told to return — used to
// prove the central select() contract rejects rogue selections.
class ScriptedPolicy final : public ReplicaPolicy {
 public:
  explicit ScriptedPolicy(std::vector<UserId> selection)
      : selection_(std::move(selection)) {}

  std::string name() const override { return "Scripted"; }

 protected:
  void select_impl(const PlacementContext&, util::Rng&,
                   placement::PlacementScratch& scratch) const override {
    scratch.selection = selection_;
  }

 private:
  std::vector<UserId> selection_;
};

struct PlacementFixture {
  std::vector<UserId> candidates{1, 2, 3};
  std::vector<interval::DaySchedule> schedules{
      interval::DaySchedule::always(), interval::DaySchedule::always(),
      interval::DaySchedule::always(), interval::DaySchedule::always()};

  PlacementContext context(std::size_t k) const {
    PlacementContext c;
    c.user = 0;
    c.candidates = candidates;
    c.schedules = schedules;
    c.connectivity = Connectivity::kUnconRep;
    c.max_replicas = k;
    return c;
  }
};

TEST(PlacementContracts, CompliantSelectionPasses) {
  PlacementFixture f;
  util::Rng rng(7);
  const ScriptedPolicy policy({3, 1});
  EXPECT_EQ(policy.select(f.context(2), rng), (std::vector<UserId>{3, 1}));
}

TEST(PlacementContracts, OverBudgetSelectionFires) {
  PlacementFixture f;
  util::Rng rng(7);
  const ScriptedPolicy policy({1, 2, 3});
  EXPECT_THROW(policy.select(f.context(2), rng), ContractError);
}

TEST(PlacementContracts, NonCandidateHolderFires) {
  PlacementFixture f;
  util::Rng rng(7);
  // User 0 is not his own contact; neither is an arbitrary stranger.
  EXPECT_THROW(ScriptedPolicy({0}).select(f.context(3), rng), ContractError);
  EXPECT_THROW(ScriptedPolicy({9}).select(f.context(3), rng), ContractError);
}

TEST(PlacementContracts, DuplicateHolderFires) {
  PlacementFixture f;
  util::Rng rng(7);
  const ScriptedPolicy policy({2, 2});
  EXPECT_THROW(policy.select(f.context(3), rng), ContractError);
}

TEST(PlacementContracts, PaperPoliciesSatisfyTheContract) {
  // The real policies run through the same validated entry point; a basic
  // end-to-end selection proves the wall does not reject honest output.
  PlacementFixture f;
  trace::ActivityTrace trace(4, {});
  auto ctx = f.context(2);
  ctx.trace = &trace;
  util::Rng rng(7);
  for (const auto kind :
       {placement::PolicyKind::kMaxAv, placement::PolicyKind::kMostActive,
        placement::PolicyKind::kRandom, placement::PolicyKind::kCoreGroup,
        placement::PolicyKind::kHybrid}) {
    const auto policy = placement::make_policy(kind);
    EXPECT_LE(policy->select(ctx, rng).size(), 2u) << policy->name();
  }
}

// ------------------------------------------------------------ onlinetime

// A model that produces one schedule too few — the misalignment the
// schedules() template method must catch.
class TruncatingModel final : public onlinetime::OnlineTimeModel {
 public:
  std::string name() const override { return "Truncating"; }

 protected:
  std::vector<interval::DaySchedule> schedules_impl(
      const trace::Dataset& dataset, util::Rng&) const override {
    return std::vector<interval::DaySchedule>(dataset.num_users() - 1);
  }
};

trace::Dataset tiny_dataset() {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  trace::Dataset d;
  d.name = "tiny";
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(3, {});
  return d;
}

TEST(OnlineTimeContracts, WrongScheduleCountFires) {
  const auto dataset = tiny_dataset();
  util::Rng rng(11);
  EXPECT_THROW(TruncatingModel{}.schedules(dataset, rng), ContractError);
}

TEST(OnlineTimeContracts, RealModelsSatisfyTheContract) {
  const auto dataset = tiny_dataset();
  util::Rng rng(11);
  for (const auto kind :
       {onlinetime::ModelKind::kSporadic, onlinetime::ModelKind::kFixedLength,
        onlinetime::ModelKind::kRandomLength,
        onlinetime::ModelKind::kEnrichedSporadic}) {
    const auto model = onlinetime::make_model(kind);
    EXPECT_EQ(model->schedules(dataset, rng).size(), dataset.num_users())
        << model->name();
  }
}

// ------------------------------------------------------------------- net

TEST(EventQueueContracts, SchedulingIntoThePastFires) {
  net::EventQueue q;
  q.schedule(100, [] {});
  q.run_all();
  EXPECT_EQ(q.now(), 100);
  EXPECT_THROW(q.schedule(99, [] {}), ContractError);
  EXPECT_NO_THROW(q.schedule(100, [] {}));  // same instant is fine
}

// ------------------------------------------------------------------ util

TEST(AliasContracts, ValidTableAccepted) {
  const std::vector<double> prob{0.5, 1.0};
  const std::vector<std::uint32_t> alias{1, 1};
  EXPECT_NO_THROW(util::detail::check_alias_table(prob, alias));
}

TEST(AliasContracts, MalformedTablesFire) {
  const std::vector<double> prob{0.5, 1.0};
  const std::vector<double> bad_prob{0.5, 1.5};
  const std::vector<double> neg_prob{-0.1, 1.0};
  const std::vector<std::uint32_t> alias{1, 1};
  const std::vector<std::uint32_t> bad_alias{1, 2};
  const std::vector<std::uint32_t> short_alias{1};
  EXPECT_THROW(util::detail::check_alias_table(bad_prob, alias),
               ContractError);
  EXPECT_THROW(util::detail::check_alias_table(neg_prob, alias),
               ContractError);
  EXPECT_THROW(util::detail::check_alias_table(prob, bad_alias),
               ContractError);
  EXPECT_THROW(util::detail::check_alias_table(prob, short_alias),
               ContractError);
}

TEST(AliasContracts, ConstructedSamplersPassTheirOwnContract) {
  util::Rng rng(3);
  const std::vector<double> weights{0.1, 0.0, 5.0, 2.5};
  util::DiscreteSampler sampler(weights);  // would throw if malformed
  for (int i = 0; i < 1000; ++i) {
    const std::size_t v = sampler.draw(rng);
    EXPECT_LT(v, weights.size());
    EXPECT_NE(v, 1u);  // zero-weight slot never drawn
  }
}

// ------------------------------------------------------------------- sim

TEST(SimContracts, EvaluateUserRejectsHolderWithoutSchedule) {
  const auto dataset = tiny_dataset();
  const std::vector<interval::DaySchedule> schedules(
      3, interval::DaySchedule::always());
  const std::vector<graph::UserId> bogus{7};
  EXPECT_THROW(sim::evaluate_user(dataset, schedules, 1, bogus,
                                  Connectivity::kUnconRep),
               ContractError);
}

TEST(SimContracts, UserTableRejectsPickOutOfRange) {
  const auto dataset = tiny_dataset();
  const std::vector<interval::DaySchedule> schedules(
      3, interval::DaySchedule::always());
  const std::vector<graph::UserId> holders{0, 2};
  sim::UserTable table;
  table.build(dataset, schedules, 1, holders, Connectivity::kConRep);
  std::vector<sim::UserMetrics> rows(3);
  // Positions: the two contacts, no extra holder.
  const std::vector<std::uint32_t> in_range{1, 0};
  EXPECT_NO_THROW(table.evaluate(in_range, 0, 2, rows));
  const std::vector<std::uint32_t> past_the_end{0, 2};
  EXPECT_THROW(table.evaluate(past_the_end, 0, 2, rows), ContractError);
}

// Study options are checked once at every sweep entry: zero repetitions
// used to reach average_runs' internal assertion with an empty run list,
// and a zero shard size was silently clamped to 1.
class StudyOptionContracts : public ::testing::Test {
 protected:
  /// Options every sweep below accepts on the tiny path graph (cohort =
  /// its two degree-1 endpoints), so a throw can only come from the
  /// field a test breaks.
  static sim::StudyOptions valid_options() {
    sim::StudyOptions options;
    options.cohort_degree = 1;
    options.k_max = 1;
    options.repetitions = 1;
    options.policies = {placement::PolicyKind::kRandom};
    options.threads = 1;
    return options;
  }

  /// Every Study entry point, each bound to `options`.
  std::vector<std::function<void()>> sweeps(
      const sim::StudyOptions& options) const {
    const auto sporadic = onlinetime::ModelKind::kSporadic;
    return {
        [=, this] {
          (void)study_.replication_sweep(sporadic, {}, Connectivity::kConRep,
                                         options);
        },
        [=, this] {
          const std::vector<interval::Seconds> lengths{3600};
          (void)study_.session_length_sweep(lengths, 1,
                                            Connectivity::kConRep, options);
        },
        [=, this] {
          (void)study_.user_degree_sweep(1, sporadic, {},
                                         Connectivity::kConRep, options);
        },
        [=, this] {
          const std::vector<double> intensities{0.0};
          (void)study_.resilience_sweep(sporadic, {}, Connectivity::kConRep,
                                        net::FaultPlan{}, intensities, 1,
                                        options);
        },
        [=, this] {
          (void)study_.cohort_samples(sporadic, {}, Connectivity::kConRep,
                                      placement::PolicyKind::kRandom, 1,
                                      options);
        },
    };
  }

  trace::Dataset dataset_ = tiny_dataset();
  sim::Study study_{dataset_, 5};
};

TEST_F(StudyOptionContracts, ValidOptionsAccepted) {
  for (const auto& sweep : sweeps(valid_options())) EXPECT_NO_THROW(sweep());
}

TEST_F(StudyOptionContracts, ZeroRepetitionsFire) {
  auto options = valid_options();
  options.repetitions = 0;
  for (const auto& sweep : sweeps(options))
    EXPECT_THROW(sweep(), ConfigError);
}

TEST_F(StudyOptionContracts, ZeroShardSizeFires) {
  auto options = valid_options();
  options.shard_size = 0;
  for (const auto& sweep : sweeps(options))
    EXPECT_THROW(sweep(), ConfigError);
}

// -------------------------------------------------------------- scenario

TEST(ScenarioContracts, ValidCompositeSpecPasses) {
  net::ScenarioSpec spec;
  spec.regional_outages.push_back({2, 0, 0, 1000, 0.9});
  spec.regional_outages.push_back({2, 1, 0, 1000, 0.9});  // disjoint class
  spec.flash_crowds.push_back({500, 2000, 4.0});
  spec.churn_bursts.push_back({0, 3000, 0.5, 0.8});
  EXPECT_NO_THROW(net::validate(spec));
}

TEST(ScenarioContracts, ProbabilityOutOfRangeFires) {
  net::ScenarioSpec spec;
  spec.regional_outages.push_back({2, 0, 0, 1000, 1.5});
  EXPECT_THROW(net::validate(spec), ConfigError);
  spec = {};
  spec.churn_bursts.push_back({0, 1000, -0.1, 1.0});
  EXPECT_THROW(net::validate(spec), ConfigError);
  spec = {};
  spec.churn_bursts.push_back({0, 1000, 0.5, 2.0});
  EXPECT_THROW(net::validate(spec), ConfigError);
}

TEST(ScenarioContracts, InvertedOrNegativeWindowFires) {
  net::ScenarioSpec spec;
  spec.flash_crowds.push_back({2000, 1000, 2.0});  // inverted
  EXPECT_THROW(net::validate(spec), ConfigError);
  spec = {};
  spec.regional_outages.push_back({2, 0, -5, 1000, 1.0});  // before t=0
  EXPECT_THROW(net::validate(spec), ConfigError);
}

TEST(ScenarioContracts, RegionOutsidePartitionFires) {
  net::ScenarioSpec spec;
  spec.regional_outages.push_back({2, 2, 0, 1000, 1.0});
  EXPECT_THROW(net::validate(spec), ConfigError);
}

TEST(ScenarioContracts, OverlappingPartitionsFire) {
  // regions=2/region=0 and regions=4/region=2 share nodes ≡ 2 (mod 4)
  // over overlapping windows — rejected by the CRT intersection check.
  net::ScenarioSpec spec;
  spec.regional_outages.push_back({2, 0, 0, 1000, 1.0});
  spec.regional_outages.push_back({4, 2, 500, 1500, 1.0});
  EXPECT_THROW(net::validate(spec), ConfigError);

  // Same classes but disjoint windows: fine.
  spec.regional_outages[1].start = 1000;
  spec.regional_outages[1].end = 2000;
  EXPECT_NO_THROW(net::validate(spec));

  // Overlapping windows but disjoint residue classes: fine.
  spec.regional_outages[1] = {4, 1, 500, 1500, 1.0};
  EXPECT_NO_THROW(net::validate(spec));
}

TEST(ScenarioContracts, FlashMultiplierOutOfRangeFires) {
  net::ScenarioSpec spec;
  spec.flash_crowds.push_back({0, 1000, 0.5});
  EXPECT_THROW(net::validate(spec), ConfigError);
  spec.flash_crowds[0].load_multiplier = 65.0;
  EXPECT_THROW(net::validate(spec), ConfigError);
}

TEST(ScenarioContracts, FaultPlanValidateCoversItsScenario) {
  net::FaultPlan plan;
  plan.scenario.flash_crowds.push_back({2000, 1000, 2.0});
  EXPECT_THROW(net::validate(plan), ConfigError);
}

// ------------------------------------------------------------ resilience

TEST(ResilienceContracts, DefaultPolicyIsZeroAndValid) {
  serve::ResiliencePolicy policy;
  EXPECT_TRUE(policy.zero());
  EXPECT_NO_THROW(serve::validate(policy));
}

TEST(ResilienceContracts, OutOfRangeKnobsFire) {
  serve::ResiliencePolicy policy;
  policy.hedge_delay = -1;
  EXPECT_THROW(serve::validate(policy), ConfigError);
  policy = {};
  policy.stale_read_tax = -1;
  EXPECT_THROW(serve::validate(policy), ConfigError);
  policy = {};
  policy.max_retries = 33;
  EXPECT_THROW(serve::validate(policy), ConfigError);
  policy = {};
  policy.retry_backoff = 0;
  EXPECT_THROW(serve::validate(policy), ConfigError);
  policy = {};
  policy.retry_backoff_cap = policy.retry_backoff - 1;
  EXPECT_THROW(serve::validate(policy), ConfigError);
  policy = {};
  policy.deadline = -5;
  EXPECT_THROW(serve::validate(policy), ConfigError);
  policy = {};
  policy.feed_min_coverage = 1.5;
  EXPECT_THROW(serve::validate(policy), ConfigError);
}

TEST(ResilienceContracts, ServingConfigValidateCoversThePolicy) {
  serve::ServingConfig config;
  config.resilience.feed_min_coverage = -0.5;
  EXPECT_THROW(serve::validate(config), ConfigError);
}

// ------------------------------------------------------ storage regimes

TEST(RegimeContracts, SocialDhtConfigBoundsFire) {
  net::SocialDhtConfig config;
  config.replication = 0;
  EXPECT_THROW(net::validate(config), ConfigError);
  config.replication = 65;
  EXPECT_THROW(net::validate(config), ConfigError);
  config = {};
  config.cluster_cap = 0;
  EXPECT_THROW(net::validate(config), ConfigError);
  config.cluster_cap = 4097;
  EXPECT_THROW(net::validate(config), ConfigError);
  config = {};
  config.hop_cost = -1;
  EXPECT_THROW(net::validate(config), ConfigError);
  EXPECT_NO_THROW(net::validate(net::SocialDhtConfig{}));
}

TEST(RegimeContracts, SocialDhtAccessorsRejectOutOfRangeUsers) {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 4);
  b.add_edge(0, 1);
  const auto g = std::move(b).build();
  const net::SocialDht dht(g, net::SocialDhtConfig{});
  EXPECT_THROW(dht.cluster_anchor(4), ContractError);
  EXPECT_THROW(dht.cluster_rank(4), ContractError);
  EXPECT_THROW(dht.key_position(4), ContractError);
  EXPECT_THROW(dht.owner_of(4), ContractError);
  EXPECT_THROW(dht.responsible_nodes(4), ContractError);
  EXPECT_THROW(dht.lookup_from(0, 4), ContractError);
  EXPECT_THROW(dht.lookup_from(4, 0), ContractError);
}

TEST(RegimeContracts, SuperPeerConfigBoundsFire) {
  placement::SuperPeerConfig config;
  config.volunteer_threshold = -0.1;
  EXPECT_THROW(placement::validate(config), ConfigError);
  config.volunteer_threshold = 1.1;
  EXPECT_THROW(placement::validate(config), ConfigError);
  config = {};
  config.target_availability = -0.1;
  EXPECT_THROW(placement::validate(config), ConfigError);
  config.target_availability = 1.1;
  EXPECT_THROW(placement::validate(config), ConfigError);
  // NaN fails every comparison; the bounds must still reject it.
  config = {};
  config.volunteer_threshold = std::nan("");
  EXPECT_THROW(placement::validate(config), ConfigError);
  config = {};
  config.target_availability = std::nan("");
  EXPECT_THROW(placement::validate(config), ConfigError);
  config = {};
  config.max_storekeepers = 65;
  EXPECT_THROW(placement::validate(config), ConfigError);
  EXPECT_NO_THROW(placement::validate(placement::SuperPeerConfig{}));
}

TEST(RegimeContracts, ServingConfigRejectsRegimeUnderUnconRep) {
  // The DHT and super-peer regimes replace the relay; combining them
  // with UnconRep has no defined semantics and must be rejected.
  serve::ServingConfig config;
  config.connectivity = placement::Connectivity::kUnconRep;
  config.regime = placement::StorageRegime::kSocialDht;
  EXPECT_THROW(serve::validate(config), ConfigError);
  config.regime = placement::StorageRegime::kSuperPeer;
  EXPECT_THROW(serve::validate(config), ConfigError);
  config.regime = placement::StorageRegime::kReplicaGroup;
  EXPECT_NO_THROW(serve::validate(config));
  // Regime sub-configs are validated through the serving config too.
  config = {};
  config.social_dht.replication = 0;
  EXPECT_THROW(serve::validate(config), ConfigError);
  config = {};
  config.super_peer.max_storekeepers = 65;
  EXPECT_THROW(serve::validate(config), ConfigError);
}

TEST(ServingContracts, HorizonBeyond32BitSecondsFires) {
  // Surfaces are stored in 32-bit seconds: 49,710 days is the last
  // horizon whose every instant fits. Only validate runs here.
  serve::ServingConfig config;
  config.workload.horizon_days = 49'711;
  EXPECT_THROW(serve::validate(config), ConfigError);
  config.workload.horizon_days = 49'710;
  EXPECT_NO_THROW(serve::validate(config));
}

}  // namespace
}  // namespace dosn
