#include "replay.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>

#include "interval/interval_set.hpp"
#include "metrics/delay.hpp"
#include "net/replica_sim.hpp"
#include "serve/workload.hpp"
#include "sim/cohort_accum.hpp"
#include "sim/evaluate.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

using dosn::graph::UserId;
using dosn::interval::DaySchedule;
using dosn::interval::Interval;
using dosn::interval::Seconds;
using dosn::net::SimTime;

// Constants of the engine's own loops, repeated here because they are
// private to the files that use them: the serving study's placement
// stream tag and its checksum's FNV-1a parameters.
constexpr std::uint64_t kPlacementTag = 0x53455256'504c4143ULL;
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

/// The study engine's per-user loop (StreamingStudy::evaluate_policy_sharded
/// run serially) and its reduction, one policy run at a time.
std::uint64_t replay_study(const Workload& workload,
                           const dosn::synth::ScaleStudyInput& input,
                           std::span<const UserId> cohort, std::uint64_t seed,
                           Ledger& ledger, std::uint64_t& ops) {
  namespace sim = dosn::sim;
  const auto options = study_options(input.cohort_degree);
  const auto& dataset = input.dataset;
  const std::span<const DaySchedule> schedules = input.schedules;
  const auto connectivity = workload.connectivity;
  const std::size_t k_max = options.k_max;
  const std::size_t stride = k_max + 1;

  sim::SweepResult result;
  result.dataset_name = dataset.name;
  result.model_name = input.model_name;
  result.connectivity_name = dosn::placement::to_string(connectivity);
  result.x_label = "replication degree";
  for (std::size_t k = 0; k <= k_max; ++k)
    result.xs.push_back(static_cast<double>(k));

  sim::EvalScratch scratch;
  std::vector<sim::UserMetrics> user_rows;
  std::vector<sim::UserMetrics> rows;
  dosn::metrics::DelayPrefixEvaluator delay{DaySchedule{}, connectivity};

  for (std::size_t p = 0; p < options.policies.size(); ++p) {
    const auto policy =
        dosn::placement::make_policy(options.policies[p], options.policy_params);
    const std::size_t reps = policy->randomized() ? options.repetitions : 1;
    std::vector<std::vector<sim::CohortMetrics>> runs;
    for (std::size_t r = 0; r < reps; ++r) {
      const std::uint64_t stream =
          sim::sweep_stream(seed, sim::detail::kReplicationTag, 0, p, r);
      rows.clear();
      rows.reserve(cohort.size() * stride);
      for (const UserId u : cohort) {
        dosn::placement::PlacementContext context;
        context.user = u;
        context.candidates = dataset.graph.contacts(u);
        context.schedules = schedules;
        context.trace = &dataset.trace;
        context.connectivity = connectivity;
        context.max_replicas = k_max;
        dosn::util::Rng rng(dosn::util::mix64(stream, u));

        auto start = Clock::now();
        const auto selected = policy->select(context, rng);
        ledger.select_us.push_back(ledger.close(kSelect, start) * 1e6);
        ++ledger.select_calls;
        ledger.candidates += context.candidates.size();
        ledger.replicas += selected.size();

        start = Clock::now();
        sim::evaluate_user_prefixes(dataset, schedules, u, selected,
                                    connectivity, k_max, scratch, user_rows);
        ledger.evaluate_us.push_back(ledger.close(kEvaluate, start) * 1e6);
        ++ledger.evaluate_calls;

        // The delay work evaluate_user_prefixes does inside, repeated on
        // its own: one push per selected prefix, one result per k.
        start = Clock::now();
        delay.reset(schedules[u], connectivity);
        const std::size_t take = std::min(k_max, selected.size());
        dosn::metrics::DelayResult last;
        for (std::size_t k = 0; k <= k_max; ++k) {
          if (k >= 1 && k <= take) delay.push(schedules[selected[k - 1]]);
          last = delay.result();
        }
        ledger.close(kDelay, start);
        ledger.delay_pushes += take;
        ledger.delay_pairs += last.nodes * (last.nodes == 0 ? 0 : last.nodes - 1);

        DOSN_REQUIRE(user_rows.size() == stride, "replay: row count mismatch");
        rows.insert(rows.end(), user_rows.begin(), user_rows.end());
        ++ops;
      }

      const auto start = Clock::now();
      std::vector<sim::detail::CohortAccum> accum(stride);
      for (std::size_t off = 0; off < rows.size(); off += stride)
        for (std::size_t k = 0; k <= k_max; ++k) accum[k].add(rows[off + k]);
      std::vector<sim::CohortMetrics> means;
      means.reserve(stride);
      for (const auto& a : accum) means.push_back(a.mean());
      runs.push_back(std::move(means));
      ledger.close(kReduce, start);
      ledger.rows_reduced += rows.size();
    }

    const auto start = Clock::now();
    sim::PolicyCurve curve;
    curve.policy_name = policy->name();
    curve.policy = options.policies[p];
    for (std::size_t k = 0; k <= k_max; ++k) {
      std::vector<sim::CohortMetrics> at_k;
      at_k.reserve(runs.size());
      for (const auto& run : runs) at_k.push_back(run[k]);
      curve.points.push_back(sim::detail::average_runs(at_k));
    }
    result.policies.push_back(std::move(curve));
    ledger.close(kReduce, start);
  }
  return sim::sweep_checksum(result);
}

/// Wait from `t` until `pieces` next covers an instant (the serving
/// study's fetch wait); nullopt when nothing remains within the horizon.
std::optional<Seconds> wait_within(std::span<const Interval> pieces,
                                   SimTime t) {
  const auto it = std::upper_bound(
      pieces.begin(), pieces.end(), t,
      [](SimTime v, const Interval& piece) { return v < piece.end; });
  if (it == pieces.end()) return std::nullopt;
  return it->start <= t ? 0 : it->start - t;
}

/// One profile's selection and the union of its members' realized
/// sessions over the horizon.
struct Group {
  std::vector<UserId> selection;
  std::vector<Interval> online;
};

/// Realizes each referenced profile once, on first reference, as the
/// serving study's group cache does.
class GroupTable {
 public:
  GroupTable(const dosn::synth::ScaleStudyInput& input,
             const dosn::serve::ServingConfig& config, std::uint64_t seed,
             Ledger& ledger)
      : input_(input),
        config_(config),
        policy_(dosn::placement::make_policy(config.policy,
                                             config.policy_params)),
        placement_stream_(dosn::util::mix64(seed, kPlacementTag)),
        slot_(input.dataset.num_users(), kUnrealized),
        ledger_(ledger) {}

  const Group& get(UserId user) {
    if (slot_[user] == kUnrealized) {
      slot_[user] = groups_.size();
      groups_.push_back(realize(user));
    }
    return groups_[slot_[user]];
  }

  dosn::net::FaultPlan plan_for(UserId user) const {
    dosn::net::FaultPlan plan = config_.faults;
    plan.seed = dosn::util::mix64(plan.seed, user);
    return plan;
  }

 private:
  static constexpr std::size_t kUnrealized = static_cast<std::size_t>(-1);

  Group realize(UserId user) {
    const auto& schedules = input_.schedules;
    Group g;
    dosn::placement::PlacementContext context;
    context.user = user;
    context.candidates = input_.dataset.graph.contacts(user);
    context.schedules = schedules;
    context.trace = &input_.dataset.trace;
    context.connectivity = config_.connectivity;
    context.max_replicas = config_.replicas;
    dosn::util::Rng rng(dosn::util::mix64(placement_stream_, user));
    const auto start = Clock::now();
    g.selection = policy_->select(context, rng);
    ledger_.select_us.push_back(ledger_.close(kSelect, start) * 1e6);
    ++ledger_.select_calls;
    ledger_.candidates += context.candidates.size();
    ledger_.replicas += g.selection.size();

    dosn::net::FaultInjector injector(plan_for(user));
    dosn::interval::IntervalSet online;
    const auto add_member = [&](std::size_t node, const DaySchedule& schedule) {
      auto span_start = Clock::now();
      const auto sessions =
          injector.sessions(node, schedule, config_.workload.horizon_days);
      ledger_.close(kSessions, span_start);
      span_start = Clock::now();
      for (const auto& iv : sessions) online.add(iv.start, iv.end);
      ledger_.close(kUnion, span_start);
      ledger_.fault_intervals += sessions.size();
      ledger_.add_calls += sessions.size();
    };
    add_member(0, schedules[user]);
    for (std::size_t i = 0; i < g.selection.size(); ++i)
      add_member(i + 1, schedules[g.selection[i]]);
    g.online.assign(online.pieces().begin(), online.pieces().end());
    ++ledger_.groups_realized;
    return g;
  }

  const dosn::synth::ScaleStudyInput& input_;
  const dosn::serve::ServingConfig& config_;
  std::unique_ptr<dosn::placement::ReplicaPolicy> policy_;
  std::uint64_t placement_stream_;
  std::vector<std::size_t> slot_;
  std::deque<Group> groups_;
  Ledger& ledger_;
};

/// The serving study's naive replica-group path (serve_user run serially
/// in cohort order) and its request-log checksum. Covers the benchmark's
/// configuration: ConRep, no resilience policy, no flash crowds, no
/// crypto tax.
std::uint64_t replay_serve(const Workload& workload,
                           const dosn::synth::ScaleStudyInput& input,
                           std::span<const UserId> cohort, std::uint64_t seed,
                           Ledger& ledger, std::uint64_t& ops) {
  using dosn::serve::RequestKind;
  const auto config = serving_config(workload, seed);
  DOSN_REQUIRE(config.connectivity == dosn::placement::Connectivity::kConRep &&
                   config.regime ==
                       dosn::placement::StorageRegime::kReplicaGroup &&
                   config.resilience.zero() && config.crypto_op_cost == 0 &&
                   config.faults.scenario.flash_crowds.empty(),
               "replay: only the naive ConRep replica-group path is replayed");
  const auto& graph = input.dataset.graph;
  GroupTable table(input, config, seed, ledger);

  std::uint64_t checksum = kFnvOffset;
  for (const UserId user : cohort) {
    const auto contacts = graph.contacts(user);
    auto start = Clock::now();
    const auto requests = dosn::serve::user_requests(config.workload, seed,
                                                     user, contacts.size());
    ledger.close(kWorkload, start);
    ledger.requests += requests.size();

    const Group& own = table.get(user);
    std::vector<dosn::net::UpdateSpec> writes;
    for (const auto& r : requests) {
      switch (r.kind) {
        case RequestKind::kProfileRead: ++ledger.reads; break;
        case RequestKind::kFeedAssembly: ++ledger.feeds; break;
        case RequestKind::kPostWrite:
          ++ledger.writes;
          writes.push_back({r.time, 0});
          break;
      }
    }
    dosn::net::ReplicaSimReport write_report;
    const bool simulate_writes = !writes.empty() && !own.selection.empty();
    if (simulate_writes) {
      std::vector<DaySchedule> nodes;
      nodes.reserve(own.selection.size() + 1);
      nodes.push_back(input.schedules[user]);
      for (const UserId holder : own.selection)
        nodes.push_back(input.schedules[holder]);
      dosn::net::ReplicaSimConfig sim_config;
      sim_config.connectivity = config.connectivity;
      sim_config.horizon_days = config.workload.horizon_days;
      sim_config.faults = table.plan_for(user);
      start = Clock::now();
      write_report = dosn::net::simulate_replica_group(nodes, writes, sim_config);
      ledger.close(kReplicaSim, start);
      ++ledger.replica_sim_calls;
      ledger.replica_sim_events += write_report.events;
      ledger.replica_sim_updates += writes.size();
    }

    std::uint64_t digest = kFnvOffset;
    std::size_t write_index = 0;
    for (const auto& r : requests) {
      std::optional<Seconds> latency;
      switch (r.kind) {
        case RequestKind::kProfileRead:
          latency = contacts.empty()
                        ? std::optional<Seconds>(0)
                        : wait_within(
                              table.get(contacts[r.target_index %
                                                 contacts.size()])
                                  .online,
                              r.time);
          break;
        case RequestKind::kFeedAssembly: {
          Seconds slowest = 0;
          bool complete = true;
          for (const UserId f : contacts) {
            const auto wait = wait_within(table.get(f).online, r.time);
            if (!wait) {
              complete = false;
              break;
            }
            slowest = std::max(slowest, *wait);
          }
          if (complete) latency = slowest;
          break;
        }
        case RequestKind::kPostWrite: {
          const std::size_t index = write_index++;
          if (!simulate_writes) {
            latency = 0;
          } else {
            const auto arrival = dosn::net::first_non_origin_arrival(
                write_report.deliveries[index]);
            if (arrival) latency = *arrival - r.time;
          }
          break;
        }
      }
      fnv_mix(digest, static_cast<std::uint64_t>(r.kind));
      fnv_mix(digest, static_cast<std::uint64_t>(r.time));
      fnv_mix(digest, latency ? static_cast<std::uint64_t>(*latency) + 1 : 0);
    }
    fnv_mix(checksum, static_cast<std::uint64_t>(user));
    fnv_mix(checksum, digest);
    ops += requests.size();
  }
  return checksum;
}

}  // namespace

double Ledger::attributed() const {
  return std::accumulate(seconds.begin(), seconds.end(), 0.0);
}

ReplayResult replay(const Workload& workload,
                    const dosn::synth::ScaleStudyInput& input,
                    std::span<const UserId> cohort, std::uint64_t seed) {
  ReplayResult out;
  const auto start = Clock::now();
  out.checksum =
      workload.study
          ? replay_study(workload, input, cohort, seed, out.ledger, out.ops)
          : replay_serve(workload, input, cohort, seed, out.ledger, out.ops);
  for (std::size_t layer = 0; layer < kLayerCount; ++layer)
    if (out.ledger.spans[layer] == 0)
      out.ledger.close(static_cast<Layer>(layer), Clock::now());
  out.replay_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

}  // namespace perfbench
