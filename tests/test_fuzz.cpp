// Reference-model fuzzing: the optimized data structures are checked
// against deliberately naive implementations on thousands of random
// inputs — a second, independent implementation of the same semantics.
// Plus a garbage/truncation corpus for the dataset parsers: arbitrary
// bytes must either parse or throw a line-numbered dosn::Error, never
// crash or silently mangle data.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "interval/day_schedule.hpp"
#include "interval/interval_set.hpp"
#include "net/event_queue.hpp"
#include "net/scenario.hpp"
#include "net/social_dht.hpp"
#include "pair_delay_oracle.hpp"
#include "placement/super_peer.hpp"
#include "trace/parsers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dosn {
namespace {

using interval::DaySchedule;
using interval::Interval;
using interval::IntervalSet;
using interval::kDaySeconds;
using interval::Seconds;

/// Naive reference: a set of covered integer points on a coarse grid.
class PointSet {
 public:
  void add(Seconds start, Seconds end) {
    for (Seconds t = start; t < end; ++t) points_.insert(t);
  }
  static PointSet of(const IntervalSet& s) {
    PointSet p;
    for (const auto& iv : s.pieces()) p.add(iv.start, iv.end);
    return p;
  }
  PointSet unite(const PointSet& o) const {
    PointSet r = *this;
    r.points_.insert(o.points_.begin(), o.points_.end());
    return r;
  }
  PointSet intersect(const PointSet& o) const {
    PointSet r;
    for (Seconds t : points_)
      if (o.points_.count(t)) r.points_.insert(t);
    return r;
  }
  PointSet subtract(const PointSet& o) const {
    PointSet r;
    for (Seconds t : points_)
      if (!o.points_.count(t)) r.points_.insert(t);
    return r;
  }
  std::size_t size() const { return points_.size(); }
  bool contains(Seconds t) const { return points_.count(t) > 0; }
  bool operator==(const PointSet&) const = default;

 private:
  std::set<Seconds> points_;
};

IntervalSet random_set(util::Rng& rng, Seconds universe, int max_pieces) {
  IntervalSet s;
  const auto pieces = rng.below(static_cast<std::uint64_t>(max_pieces) + 1);
  for (std::uint64_t i = 0; i < pieces; ++i) {
    const Seconds start = rng.range(0, universe - 2);
    const Seconds len = rng.range(1, std::min<Seconds>(40, universe - start));
    s.add(start, start + len);
  }
  return s;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, IntervalAlgebraMatchesPointSet) {
  util::Rng rng(GetParam());
  constexpr Seconds kUniverse = 300;  // small so PointSet stays cheap
  for (int round = 0; round < 120; ++round) {
    const auto a = random_set(rng, kUniverse, 5);
    const auto b = random_set(rng, kUniverse, 5);
    const auto pa = PointSet::of(a);
    const auto pb = PointSet::of(b);

    EXPECT_EQ(PointSet::of(a.unite(b)), pa.unite(pb));
    EXPECT_EQ(PointSet::of(a.intersect(b)), pa.intersect(pb));
    EXPECT_EQ(PointSet::of(a.subtract(b)), pa.subtract(pb));
    EXPECT_EQ(static_cast<std::size_t>(a.measure()), pa.size());
    EXPECT_EQ(static_cast<std::size_t>(a.intersection_measure(b)),
              pa.intersect(pb).size());

    const Seconds probe = rng.range(0, kUniverse);
    EXPECT_EQ(a.contains(probe), pa.contains(probe));
    EXPECT_EQ(a.intersects(b), pa.intersect(pb).size() > 0);

    const Seconds lo = rng.range(0, kUniverse - 2);
    const Seconds hi = rng.range(lo + 1, kUniverse);
    EXPECT_EQ(static_cast<std::size_t>(a.clip(lo, hi).measure()),
              pa.intersect(PointSet::of(IntervalSet::single(lo, hi))).size());
  }
}

TEST_P(FuzzSeeds, NextAtOrAfterMatchesScan) {
  util::Rng rng(GetParam() + 100);
  for (int round = 0; round < 100; ++round) {
    const auto a = random_set(rng, 300, 5);
    const auto pa = PointSet::of(a);
    const Seconds t = rng.range(0, 320);
    std::optional<Seconds> expected;
    for (Seconds probe = t; probe < 340; ++probe) {
      if (pa.contains(probe)) {
        expected = probe;
        break;
      }
    }
    EXPECT_EQ(a.next_at_or_after(t), expected);
  }
}

TEST_P(FuzzSeeds, WaitUntilOnlineMatchesScan) {
  util::Rng rng(GetParam() + 200);
  for (int round = 0; round < 40; ++round) {
    // Coarse schedules: pieces aligned to 10-minute slots.
    IntervalSet s;
    const auto pieces = 1 + rng.below(4);
    for (std::uint64_t i = 0; i < pieces; ++i) {
      const Seconds start = rng.range(0, 143) * 600;
      const Seconds len = rng.range(1, 6) * 600;
      s.add(start, std::min(start + len, kDaySeconds));
    }
    const DaySchedule sched(std::move(s));
    for (int probe = 0; probe < 20; ++probe) {
      const Seconds t = rng.range(0, kDaySeconds - 1);
      const auto wait = interval::oracle::wait_until_online(sched, t);
      ASSERT_TRUE(wait.has_value());
      // The answer is an online instant...
      EXPECT_TRUE(sched.online_at(t + *wait));
      // ...and nothing earlier is (scan at minute granularity; schedule
      // boundaries are 10-minute aligned so a minute grid cannot miss an
      // online stretch).
      for (Seconds w = 0; w < *wait; w += 60)
        EXPECT_FALSE(sched.online_at(t + w)) << "t=" << t << " w=" << w;
    }
  }
}

TEST_P(FuzzSeeds, OnlineWithinWindowMatchesMinuteScan) {
  util::Rng rng(GetParam() + 300);
  for (int round = 0; round < 30; ++round) {
    IntervalSet s;
    const auto pieces = 1 + rng.below(4);
    for (std::uint64_t i = 0; i < pieces; ++i) {
      const Seconds start = rng.range(0, 1430) * 60;
      const Seconds len = rng.range(1, 120) * 60;
      s.add(start, std::min(start + len, kDaySeconds));
    }
    const DaySchedule sched(std::move(s));
    const Seconds t = rng.range(0, 1439) * 60;
    const Seconds len = rng.range(1, 3000) * 60;  // up to ~2 days

    Seconds brute = 0;
    for (Seconds m = 0; m < len; m += 60)
      if (sched.online_at(t + m)) brute += 60;
    EXPECT_EQ(interval::oracle::online_within_window(sched, t, len), brute);
  }
}

TEST_P(FuzzSeeds, EventQueueMatchesSortedReplay) {
  util::Rng rng(GetParam() + 400);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 50 + rng.below(100);
    std::vector<std::pair<net::SimTime, int>> scheduled;
    net::EventQueue queue;
    std::vector<int> fired;
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = static_cast<net::SimTime>(rng.below(40));
      const int tag = static_cast<int>(i);
      scheduled.emplace_back(t, tag);
      queue.schedule(t, [&fired, tag] { fired.push_back(tag); });
    }
    queue.run_all();

    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), scheduled.size());
    for (std::size_t i = 0; i < fired.size(); ++i)
      EXPECT_EQ(fired[i], scheduled[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Parser corpus: the New Orleans wall trace (edge list + `receiver creator
// timestamp` activities) and the tweet-list format (the same activity
// layout over a directed follower graph) fed garbage and truncated inputs.
// Contract: load_* returns parsed data or throws dosn::Error — no crash,
// no silent skip; parse errors name the file, line, and offending bytes.

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    // Unique per test case (not just per seed): ctest -j runs each case
    // as its own process, and two cases sharing a seed would race one
    // another's TearDown. The gtest name is "<Test>/<index>"; keep the
    // path flat by replacing the slash.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name)
      if (c == '/') c = '_';
    dir_ = std::filesystem::path(testing::TempDir()) /
           ("dosn_parser_fuzz_" + name + "_" + std::to_string(GetParam()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& body) {
    const auto path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    out << body;
    return path;
  }

  std::filesystem::path dir_;
};

namespace fuzz_corpus {

/// Random byte soup biased toward the characters the formats use, with
/// control bytes, NULs, and high bytes mixed in.
std::string garbage(util::Rng& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] =
      "0123456789abcdef \t\n\n#%\\N-+.\r\x01\x00\x7f\xff";
  std::string out;
  const auto len = rng.below(max_len + 1);
  for (std::uint64_t i = 0; i < len; ++i)
    out.push_back(kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
  return out;
}

constexpr char kNewOrleansActivities[] =
    "# wall posts: receiver creator unix-timestamp\n"
    "10 20 1167612766\n"
    "10 31 1167618000\n"
    "20 10 1167704333\n"
    "31 20 1167790000\n";

constexpr char kTweetList[] =
    "% tweets: timeline-owner author unix-timestamp\n"
    "alice alice 1273832000\n"
    "bob alice 1273832000\n"
    "alice bob 1273918400\n";

}  // namespace fuzz_corpus

TEST_P(ParserFuzz, GarbageNeverCrashesEitherLoader) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    const auto body = fuzz_corpus::garbage(rng, 400);
    const auto file = write_file("soup", body);
    trace::IdMap edge_ids, act_ids;
    try {
      (void)trace::load_edge_list(file, edge_ids);
    } catch (const Error&) {
      // Rejection is fine; anything else (crash, UB) is the bug.
    }
    try {
      (void)trace::load_activities(file, act_ids);
    } catch (const Error&) {
    }
  }
}

// Scenario config parsing: same contract as the dataset loaders —
// arbitrary bytes either parse into a validated spec or throw a
// line-numbered dosn::Error, never crash; whatever parses round-trips
// through to_text.
TEST_P(ParserFuzz, ScenarioGarbageParsesOrThrows) {
  util::Rng rng(GetParam());
  static constexpr char kScenarioAlphabet[] =
      "0123456789. =_\t\n#regional_outage flash_crowd churn_burst "
      "regions region start end participation load_multiplier no_show"
      "\x01\x00\x7f\xff-";
  for (int round = 0; round < 60; ++round) {
    std::string body;
    const auto len = rng.below(400);
    for (std::uint64_t i = 0; i < len; ++i)
      body.push_back(
          kScenarioAlphabet[rng.below(sizeof(kScenarioAlphabet) - 1)]);
    try {
      const auto spec = net::parse_scenario(body);
      EXPECT_EQ(net::parse_scenario(net::to_text(spec)), spec);
    } catch (const Error&) {
      // Rejection is fine; anything else (crash, UB) is the bug.
    }
  }
}

TEST_P(ParserFuzz, ScenarioTruncationsParseOrThrow) {
  static constexpr char kScenario[] =
      "# composite scenario\n"
      "regional_outage regions=2 region=0 start=172800 end=432000 "
      "participation=0.9\n"
      "flash_crowd start=86400 end=259200 load_multiplier=3\n"
      "churn_burst start=345600 end=604800 no_show=0.5 participation=0.8\n";
  const std::string_view full(kScenario);
  const auto reference = net::parse_scenario(full);
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    try {
      const auto spec = net::parse_scenario(full.substr(0, cut));
      // Whatever parses must be a per-class prefix of the full spec.
      EXPECT_LE(spec.regional_outages.size(),
                reference.regional_outages.size());
      EXPECT_LE(spec.flash_crowds.size(), reference.flash_crowds.size());
      EXPECT_LE(spec.churn_bursts.size(), reference.churn_bursts.size());
    } catch (const Error&) {
      // Truncations land in one of three typed rejections: a ParseError
      // from the line parser or a numeric field, or a ConfigError from
      // validate() — never a crash.
    }
  }
  // An unknown class still names its line.
  try {
    net::parse_scenario("meteor_strike start=0 end=1");
    FAIL() << "unknown class accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("scenario line 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(net::parse_scenario(net::to_text(reference)), reference);
}

// Storage-regime config parsing (net/social_dht.hpp,
// placement/super_peer.hpp): the same grammar discipline as the
// scenario parser — garbage parses or throws a line-numbered error, and
// whatever parses round-trips through to_text.
TEST_P(ParserFuzz, RegimeConfigGarbageParsesOrThrows) {
  util::Rng rng(GetParam());
  static constexpr char kRegimeAlphabet[] =
      "0123456789. =_\t\n#social_dht super_peer replication "
      "socially_aware cluster_cap hop_cost volunteer_threshold "
      "target_availability max_storekeepers\x01\x00\x7f\xff-";
  for (int round = 0; round < 60; ++round) {
    std::string body;
    const auto len = rng.below(400);
    for (std::uint64_t i = 0; i < len; ++i)
      body.push_back(kRegimeAlphabet[rng.below(sizeof(kRegimeAlphabet) - 1)]);
    try {
      const auto config = net::parse_social_dht(body);
      EXPECT_EQ(net::parse_social_dht(net::to_text(config)), config);
    } catch (const Error&) {
      // Rejection is fine; anything else (crash, UB) is the bug.
    }
    try {
      const auto config = placement::parse_super_peer(body);
      EXPECT_EQ(placement::parse_super_peer(placement::to_text(config)),
                config);
    } catch (const Error&) {
    }
  }
}

TEST_P(ParserFuzz, RegimeConfigTruncationsParseOrThrow) {
  static constexpr char kSocialDht[] =
      "# socially-aware ring\n"
      "social_dht replication=5 socially_aware=1 cluster_cap=16 "
      "hop_cost=11\n";
  static constexpr char kSuperPeer[] =
      "# storekeeper tier\n"
      "super_peer volunteer_threshold=0.25 target_availability=0.75 "
      "max_storekeepers=12\n";
  const std::string_view dht_full(kSocialDht);
  const std::string_view sp_full(kSuperPeer);
  for (std::size_t cut = 0; cut <= dht_full.size(); ++cut) {
    try {
      // A truncated prefix either throws or yields a valid config that
      // round-trips — never a silently mangled value.
      const auto config = net::parse_social_dht(dht_full.substr(0, cut));
      EXPECT_EQ(net::parse_social_dht(net::to_text(config)), config);
    } catch (const Error&) {
    }
  }
  for (std::size_t cut = 0; cut <= sp_full.size(); ++cut) {
    try {
      const auto config = placement::parse_super_peer(sp_full.substr(0, cut));
      EXPECT_EQ(placement::parse_super_peer(placement::to_text(config)),
                config);
    } catch (const Error&) {
    }
  }
  // An unknown record still names its line in both grammars.
  try {
    net::parse_social_dht("warp_ring radius=3");
    FAIL() << "unknown record accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("social_dht line 1"),
              std::string::npos)
        << e.what();
  }
  try {
    placement::parse_super_peer("mega_peer count=3");
    FAIL() << "unknown record accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("super_peer line 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(net::parse_social_dht(dht_full).replication, 5u);
  EXPECT_EQ(placement::parse_super_peer(sp_full).max_storekeepers, 12u);
}

TEST_P(ParserFuzz, TruncatedNewOrleansActivitiesParseOrThrow) {
  const std::string body = fuzz_corpus::kNewOrleansActivities;
  for (std::size_t cut = 0; cut <= body.size(); ++cut) {
    const auto file = write_file("t.activities", body.substr(0, cut));
    trace::IdMap ids;
    try {
      const auto acts = trace::load_activities(file, ids);
      // Whatever parsed must be a prefix of the real records: ids match
      // exactly, and only the final timestamp may be a truncated (shorter)
      // spelling of the true one — a mid-number cut is indistinguishable
      // from a smaller value in a line-oriented format.
      const struct { const char *receiver, *creator, *ts; } expected[] = {
          {"10", "20", "1167612766"},
          {"10", "31", "1167618000"},
          {"20", "10", "1167704333"},
          {"31", "20", "1167790000"},
      };
      ASSERT_LE(acts.size(), 4u);
      for (std::size_t i = 0; i < acts.size(); ++i) {
        EXPECT_EQ(ids.name_of(acts[i].receiver), expected[i].receiver);
        EXPECT_EQ(ids.name_of(acts[i].creator), expected[i].creator);
        const std::string ts = std::to_string(acts[i].timestamp);
        if (i + 1 < acts.size())
          EXPECT_EQ(ts, expected[i].ts);
        else
          EXPECT_EQ(std::string(expected[i].ts).substr(0, ts.size()), ts);
      }
    } catch (const ParseError& e) {
      // A cut mid-record must name the file and the line it broke on.
      EXPECT_NE(std::string(e.what()).find(file), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(':'), std::string::npos);
    }
  }
}

TEST_P(ParserFuzz, TruncatedTweetListDatasetParseOrThrow) {
  const auto edges = write_file("tw.edges", "bob alice\ncarol alice\n");
  const std::string body = fuzz_corpus::kTweetList;
  for (std::size_t cut = 0; cut <= body.size(); ++cut) {
    const auto acts = write_file("tw.activities", body.substr(0, cut));
    try {
      const auto d = trace::load_dataset("tw", edges, acts,
                                         graph::GraphKind::kDirected);
      EXPECT_EQ(d.graph.degree(1), 2u);  // alice's followers survive
      EXPECT_LE(d.trace.size(), 3u);
    } catch (const Error&) {
    }
  }
}

TEST_P(ParserFuzz, ErrorsCarryLineNumberAndSnippet) {
  const auto file = write_file("bad.activities",
                               "a b 100\n"
                               "b a 200\n"
                               "b a not-a-time\n");
  trace::IdMap ids;
  try {
    (void)trace::load_activities(file, ids);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(file + ":3:"), std::string::npos) << what;
    EXPECT_NE(what.find("not-a-time"), std::string::npos) << what;
  }
}

TEST_P(ParserFuzz, ControlBytesAreEscapedInErrors) {
  const auto file = write_file("ctl.edges", std::string("lonely\x01\n"));
  trace::IdMap ids;
  try {
    (void)trace::load_edge_list(file, ids);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\\x01"), std::string::npos) << what;
    EXPECT_EQ(what.find('\x01'), std::string::npos) << what;
  }
}

TEST_P(ParserFuzz, OverlongLinesAreTruncatedInErrors) {
  const auto file =
      write_file("long.edges", std::string(500, 'x') + "\n");
  trace::IdMap ids;
  try {
    (void)trace::load_edge_list(file, ids);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_LT(what.size(), 300u) << what;
    EXPECT_NE(what.find("..."), std::string::npos) << what;
  }
}

TEST_P(ParserFuzz, MissingTrailingNewlineStillParses) {
  const auto file = write_file("no_nl.activities", "a b 100\nb a 200");
  trace::IdMap ids;
  const auto acts = trace::load_activities(file, ids);
  ASSERT_EQ(acts.size(), 2u);
  EXPECT_EQ(acts[1].timestamp, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace dosn
