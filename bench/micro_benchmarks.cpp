// Google-benchmark microbenchmarks for the performance-critical kernels:
// interval algebra, the pair-delay kernels, greedy placement, the delay
// metric, per-user evaluation tables, and the event-driven replica
// simulator.
#include <benchmark/benchmark.h>

#include "core/profile.hpp"
#include "interval/day_schedule.hpp"
#include "interval/delay_graph.hpp"
#include "net/dht.hpp"
#include "net/gossip.hpp"
#include "metrics/delay.hpp"
#include "net/replica_sim.hpp"
#include "placement/max_av.hpp"
#include "sim/evaluate.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using dosn::interval::DaySchedule;
using dosn::interval::IntervalSet;
using dosn::interval::kDaySeconds;
using dosn::interval::RendezvousMode;
using dosn::interval::Seconds;

DaySchedule random_schedule(dosn::util::Rng& rng, int pieces) {
  IntervalSet s;
  for (int i = 0; i < pieces; ++i) {
    const Seconds start = rng.range(0, kDaySeconds - 7200);
    const Seconds len = rng.range(300, 2 * 3600);
    s.add(start, std::min(start + len, kDaySeconds));
  }
  return DaySchedule(std::move(s));
}

void BM_IntervalUnion(benchmark::State& state) {
  dosn::util::Rng rng(1);
  const auto a = random_schedule(rng, static_cast<int>(state.range(0)));
  const auto b = random_schedule(rng, static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(a.unite(b));
}
BENCHMARK(BM_IntervalUnion)->Arg(4)->Arg(16)->Arg(64);

void BM_IntervalIntersectMeasure(benchmark::State& state) {
  dosn::util::Rng rng(2);
  const auto a = random_schedule(rng, static_cast<int>(state.range(0)));
  const auto b = random_schedule(rng, static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(a.set().intersection_measure(b.set()));
}
BENCHMARK(BM_IntervalIntersectMeasure)->Arg(4)->Arg(16)->Arg(64);

// The observed-delay kernel: the worst reader-online time in a window of
// the delay's length ending at an online instant, one sweep over the
// reader's pieces. The argument is the reader's exact piece count, one
// piece per equal slot of the day; the 30 h delay spans a full day plus a
// remainder, so both parts of the window count.
void BM_WorstObservedDelay(benchmark::State& state) {
  dosn::util::Rng rng(6);
  const Seconds pieces = state.range(0);
  const Seconds slot = kDaySeconds / pieces;
  IntervalSet s;
  for (Seconds i = 0; i < pieces; ++i) {
    const Seconds start = i * slot + rng.range(1, slot / 3);
    s.add(start, start + rng.range(1, slot / 3));
  }
  const DaySchedule reader(std::move(s));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dosn::metrics::worst_observed_delay(reader, 30 * 3600));
}
BENCHMARK(BM_WorstObservedDelay)->Arg(4)->Arg(16)->Arg(64);

// The delay graph's edge kernel: one allocation-free sweep per pair
// (kDirect: largest circular gap of the rendezvous; kRelay: worst wait).
void BM_PairDelay(benchmark::State& state, RendezvousMode mode) {
  dosn::util::Rng rng(3);
  const auto a = random_schedule(rng, static_cast<int>(state.range(0)));
  const auto b = random_schedule(rng, static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(dosn::interval::pair_delay(a, b, mode));
}
BENCHMARK_CAPTURE(BM_PairDelay, direct, RendezvousMode::kDirect)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_PairDelay, relay, RendezvousMode::kRelay)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);

// The study engine's per-user step: a star of `degree` contacts (4 pieces
// each, 60 received activities) and the sweep's eleven runs of ten picks.
struct UserTableFixture {
  dosn::trace::Dataset dataset;
  std::vector<DaySchedule> schedules;
  std::vector<dosn::graph::UserId> holders;  // eleven runs back to back
  std::vector<std::size_t> ends;

  explicit UserTableFixture(std::size_t degree) {
    dosn::util::Rng rng(5);
    dosn::graph::SocialGraphBuilder b(dosn::graph::GraphKind::kUndirected,
                                      degree + 1);
    std::vector<dosn::graph::UserId> contacts;
    for (std::size_t f = 1; f <= degree; ++f) {
      b.add_edge(0, static_cast<dosn::graph::UserId>(f));
      contacts.push_back(static_cast<dosn::graph::UserId>(f));
    }
    dataset.graph = std::move(b).build();
    std::vector<dosn::trace::Activity> activities;
    for (int i = 0; i < 60; ++i)
      activities.push_back(
          {static_cast<dosn::graph::UserId>(rng.below(degree + 1)), 0,
           rng.range(0, 14 * kDaySeconds)});
    dataset.trace = dosn::trace::ActivityTrace(degree + 1, std::move(activities));
    for (std::size_t u = 0; u <= degree; ++u)
      schedules.push_back(random_schedule(rng, 4));
    for (int r = 0; r < 11; ++r) {
      rng.shuffle(contacts);
      holders.insert(holders.end(), contacts.begin(),
                     contacts.begin() + std::min<std::ptrdiff_t>(
                                            10, static_cast<std::ptrdiff_t>(
                                                    contacts.size())));
      ends.push_back(holders.size());
    }
  }
};

void BM_UserTableBuild(benchmark::State& state,
                       dosn::placement::Connectivity connectivity) {
  const UserTableFixture f(static_cast<std::size_t>(state.range(0)));
  dosn::sim::UserTable table;
  for (auto _ : state) {
    table.build(f.dataset, f.schedules, 0, f.holders, connectivity);
    benchmark::DoNotOptimize(table.holder_positions().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_UserTableBuild, conrep,
                  dosn::placement::Connectivity::kConRep)
    ->Arg(7)
    ->Arg(64)
    ->Arg(130);

// Build plus every run's rows 0..10: the whole per-user evaluation, memo
// fills included (each iteration starts from a fresh memo).
void BM_UserTablePrefixes(benchmark::State& state,
                          dosn::placement::Connectivity connectivity) {
  const UserTableFixture f(static_cast<std::size_t>(state.range(0)));
  dosn::sim::UserTable table;
  std::vector<dosn::sim::UserMetrics> rows(11);
  for (auto _ : state) {
    table.build(f.dataset, f.schedules, 0, f.holders, connectivity);
    const auto picks = table.holder_positions();
    for (std::size_t r = 0, from = 0; r < f.ends.size(); ++r) {
      table.evaluate(picks.subspan(from, f.ends[r] - from), 0, 10, rows);
      from = f.ends[r];
    }
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_UserTablePrefixes, conrep,
                  dosn::placement::Connectivity::kConRep)
    ->Arg(7)
    ->Arg(64)
    ->Arg(130);
BENCHMARK_CAPTURE(BM_UserTablePrefixes, unconrep,
                  dosn::placement::Connectivity::kUnconRep)
    ->Arg(7)
    ->Arg(64)
    ->Arg(130);

// MaxAv greedy set cover (the CELF lazy greedy) over random schedules; the
// argument is the candidate count.
void BM_MaxAvSelect(benchmark::State& state) {
  dosn::util::Rng rng(4);
  const auto candidates_count = static_cast<std::size_t>(state.range(0));
  std::vector<DaySchedule> schedules;
  schedules.push_back(random_schedule(rng, 4));  // owner
  std::vector<dosn::graph::UserId> candidates;
  for (std::size_t i = 0; i < candidates_count; ++i) {
    schedules.push_back(random_schedule(rng, 4));
    candidates.push_back(static_cast<dosn::graph::UserId>(i + 1));
  }
  dosn::trace::ActivityTrace trace(candidates_count + 1, {});
  dosn::placement::MaxAvPolicy policy;
  dosn::placement::PlacementContext ctx;
  ctx.user = 0;
  ctx.candidates = candidates;
  ctx.schedules = schedules;
  ctx.trace = &trace;
  ctx.connectivity = dosn::placement::Connectivity::kConRep;
  ctx.max_replicas = 10;
  for (auto _ : state) benchmark::DoNotOptimize(policy.select(ctx, rng));
}
BENCHMARK(BM_MaxAvSelect)->Arg(10)->Arg(40)->Arg(160);

// One ConRep selection per iteration through a reused PlacementScratch,
// as the study engine's shards run them: a warmed select allocates
// nothing, so this times the frontier and the policy loop alone. The
// argument is the owner's degree; a third of the contacts have activity
// on the owner's profile (MostActive's ranked head).
void BM_ConRepSelect(benchmark::State& state,
                     dosn::placement::PolicyKind kind) {
  dosn::util::Rng rng(5);
  const auto degree = static_cast<std::size_t>(state.range(0));
  std::vector<DaySchedule> schedules;
  schedules.push_back(random_schedule(rng, 4));  // owner
  std::vector<dosn::graph::UserId> candidates;
  std::vector<dosn::trace::Activity> activities;
  for (std::size_t i = 0; i < degree; ++i) {
    schedules.push_back(random_schedule(rng, 4));
    const auto id = static_cast<dosn::graph::UserId>(i + 1);
    candidates.push_back(id);
    const std::uint64_t posts = i % 3 == 0 ? 1 + rng.below(4) : 0;
    for (std::uint64_t a = 0; a < posts; ++a)
      activities.push_back({id, 0, rng.range(0, kDaySeconds - 1)});
  }
  const dosn::trace::ActivityTrace trace(degree + 1, std::move(activities));
  const auto policy = dosn::placement::make_policy(kind);
  dosn::placement::PlacementContext ctx;
  ctx.user = 0;
  ctx.candidates = candidates;
  ctx.schedules = schedules;
  ctx.trace = &trace;
  ctx.connectivity = dosn::placement::Connectivity::kConRep;
  ctx.max_replicas = 10;
  dosn::placement::PlacementScratch scratch;
  for (auto _ : state) {
    dosn::util::Rng draw(7);
    benchmark::DoNotOptimize(policy->select(ctx, draw, scratch).data());
  }
}
BENCHMARK_CAPTURE(BM_ConRepSelect, MaxAv, dosn::placement::PolicyKind::kMaxAv)
    ->Arg(7)
    ->Arg(64)
    ->Arg(512);
BENCHMARK_CAPTURE(BM_ConRepSelect, MostActive,
                  dosn::placement::PolicyKind::kMostActive)
    ->Arg(7)
    ->Arg(64)
    ->Arg(512);
BENCHMARK_CAPTURE(BM_ConRepSelect, Random,
                  dosn::placement::PolicyKind::kRandom)
    ->Arg(7)
    ->Arg(64)
    ->Arg(512);
// CoreGroup tries every candidate on a copy of its picked group each
// round, so it stays at the smaller degrees.
BENCHMARK_CAPTURE(BM_ConRepSelect, CoreGroup,
                  dosn::placement::PolicyKind::kCoreGroup)
    ->Arg(7)
    ->Arg(64);

// Fork-join overhead of the deterministic thread pool (per-index work is
// trivial, so this measures dispatch + join cost).
void BM_ThreadPoolForEach(benchmark::State& state) {
  dosn::util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<double> slots(4096);
  for (auto _ : state) {
    pool.for_each_index(slots.size(), [&](std::size_t i) {
      slots[i] = static_cast<double>(i) * 1.5;
    });
    benchmark::DoNotOptimize(slots.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(slots.size()));
}
BENCHMARK(BM_ThreadPoolForEach)->Arg(1)->Arg(2)->Arg(4);

void BM_UpdatePropagationDelay(benchmark::State& state) {
  dosn::util::Rng rng(5);
  const auto owner = random_schedule(rng, 4);
  std::vector<DaySchedule> replicas;
  for (int i = 0; i < state.range(0); ++i)
    replicas.push_back(random_schedule(rng, 4));
  for (auto _ : state)
    benchmark::DoNotOptimize(dosn::metrics::update_propagation_delay(
        owner, replicas, dosn::placement::Connectivity::kConRep));
}
BENCHMARK(BM_UpdatePropagationDelay)->Arg(3)->Arg(10);

void BM_ReplicaSim(benchmark::State& state) {
  dosn::util::Rng rng(6);
  std::vector<DaySchedule> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(random_schedule(rng, 6));
  const auto updates = dosn::net::updates_within_schedules(
      nodes, static_cast<std::size_t>(state.range(0)), 14, rng);
  dosn::net::ReplicaSimConfig cfg;
  cfg.horizon_days = 21;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dosn::net::simulate_replica_group(nodes, updates, cfg));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_ReplicaSim)->Arg(50)->Arg(500);

void BM_ProfileMerge(benchmark::State& state) {
  const auto posts = static_cast<int>(state.range(0));
  dosn::core::Profile a(0), b(0);
  for (int i = 0; i < posts; ++i) {
    a.append(1, i, "post");
    b.append(2, i, "post");
  }
  for (auto _ : state) {
    dosn::core::Profile merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.size());
  }
  state.SetItemsProcessed(state.iterations() * posts);
}
BENCHMARK(BM_ProfileMerge)->Arg(64)->Arg(512);

void BM_DhtLookup(benchmark::State& state) {
  dosn::util::Rng rng(7);
  dosn::net::DhtRing ring(2);
  for (std::int64_t id = 1; id <= state.range(0); ++id)
    ring.join(static_cast<std::uint64_t>(id));
  int i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ring.lookup("key" + std::to_string(i++ % 1000), rng).hops);
}
BENCHMARK(BM_DhtLookup)->Arg(64)->Arg(1024);

void BM_GossipDay(benchmark::State& state) {
  dosn::util::Rng rng(8);
  std::vector<DaySchedule> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(random_schedule(rng, 4));
  std::vector<dosn::net::GossipWrite> writes;
  const auto specs =
      dosn::net::updates_within_schedules(nodes, 20, 3, rng);
  for (const auto& s : specs) writes.push_back({s.time, s.origin, 1});
  dosn::net::GossipConfig cfg;
  cfg.sync_period = 600;
  cfg.horizon_days = 4;
  for (auto _ : state) {
    dosn::util::Rng run_rng(9);
    benchmark::DoNotOptimize(
        dosn::net::simulate_gossip(nodes, writes, cfg, run_rng));
  }
}
BENCHMARK(BM_GossipDay);

}  // namespace

BENCHMARK_MAIN();
