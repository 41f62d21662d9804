#include "serve/serving.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <optional>
#include <utility>

#include "interval/day_schedule.hpp"
#include "interval/interval_set.hpp"
#include "interval/packed_set.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace dosn::serve {

using interval::DaySchedule;
using interval::Interval;
using interval::IntervalSet;
using interval::PackedSet;
using net::SimTime;

namespace {

/// Stream tag of the per-user placement streams (distinct from the
/// workload tag and every study-engine stream family).
inline constexpr std::uint64_t kPlacementTag = 0x53455256'504c4143ULL;  // "SERVPLAC"

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

/// One profile's realized serving surface: the replica selection plus the
/// canonical union of the group members' fault-degraded absolute online
/// sessions over the horizon, stored in 32-bit horizon seconds
/// (interval::PackedSet), which the horizon bound in
/// validate(ServingConfig) makes exact. Under a resilience policy the
/// *advertised* surfaces are kept too, as daily schedules (DESIGN.md §15):
/// `ideal` is the daily union of every member's schedule (the
/// stale-failover surface and the feed budget's reference), `hedge` that
/// of the top-2 availability-ranked members (the hedged-read surface).
struct GroupTimeline {
  std::vector<graph::UserId> selection;
  /// kSuperPeer only: volunteer storekeepers widening the read surface
  /// (empty under every other regime — and under the threshold-1.0
  /// degeneracy, which is what keeps that path bit-identical).
  std::vector<graph::UserId> storekeepers;
  PackedSet online;
  DaySchedule ideal;
  DaySchedule hedge;
  /// A served writer's durable surface (serving.hpp); nullopt for a
  /// writer's group when the owner alone holds the profile.
  std::optional<PackedSet> durable;
  /// Pieces append_sessions emitted for this group (serve.session_pieces).
  std::uint64_t session_pieces = 0;
};

/// The worker's reused builder, holding `realized` (canonical sets) and
/// the absolute sessions of `members[first, last)` under `injector`, each
/// one sorted run (DESIGN.md §14); the caller builds their union at once.
/// A member's index in its group (owner 0, then the selection, then the
/// storekeepers) is its node, which keys the injector's per-node stream.
interval::SortedRunUnion& session_runs(
    net::FaultInjector& injector, std::span<const DaySchedule* const> members,
    std::size_t first, std::size_t last, int horizon_days,
    std::initializer_list<const IntervalSet*> realized = {}) {
  // Never re-entered: each caller builds the runs before the next call.
  thread_local interval::SortedRunUnion runs;
  for (const IntervalSet* s : realized) {
    runs.pieces().insert(runs.pieces().end(), s->pieces().begin(),
                         s->pieces().end());
    runs.end_run();
  }
  for (std::size_t node = first; node < last; ++node) {
    injector.append_sessions(node, *members[node], horizon_days,
                             runs.pieces());
    runs.end_run();
  }
  return runs;
}

/// Per-served-user accumulation, reduced serially in cohort order.
struct UserLoad {
  KindStats read;
  KindStats feed;
  KindStats write;
  ResilienceStats res;
  RegimeStats regime;
  std::uint64_t digest = kFnvOffset;
};

/// The serving study's per-run immutable context, shared by all workers.
struct RunContext {
  const trace::Dataset& dataset;
  std::span<const DaySchedule> schedules;
  const ServingConfig& config;
  const placement::ReplicaPolicy& policy;
  std::uint64_t seed;
  std::uint64_t placement_stream;
  SimTime horizon;
  /// Resilience policy enabled (config.resilience is non-zero)?
  bool resilient;
  /// Any active flash-crowd entries in the scenario?
  bool flash;
  /// Relay availability under UnconRep: every instant from 0 on outside
  /// the plan's outage windows clipped to the horizon (identical for
  /// every user).
  IntervalSet relay_up;
  /// Scaled ring under kSocialDht; null otherwise.
  const net::SocialDht* dht = nullptr;
  /// Volunteer directory under kSuperPeer; null otherwise.
  const placement::SuperPeerDirectory* directory = nullptr;
  /// kSuperPeer churn predicate: dht_crashed over the *global* (unmixed)
  /// plan seed, so every user's assignment walk sees the same volunteer
  /// up/down state. Null outside the regime.
  const net::FaultInjector* churn = nullptr;

  bool relay_exists() const {
    return config.connectivity == placement::Connectivity::kUnconRep;
  }

  net::FaultPlan plan_for(graph::UserId user) const {
    net::FaultPlan plan = config.faults;
    plan.seed = util::mix64(plan.seed, user);
    return plan;
  }

  /// `user`'s requests: the base workload merged with its flash-crowd
  /// extras. The group-table pre-pass and serve_user share this source.
  std::vector<Request> requests(graph::UserId user) const {
    const std::size_t degree = dataset.graph.contacts(user).size();
    auto base = user_requests(config.workload, seed, user, degree);
    if (!flash) return base;
    return merge_requests(
        std::move(base),
        flash_requests(config.workload, config.faults.scenario,
                       config.faults.seed, user, degree));
  }

  /// Selection plus realized group sessions for `user`'s profile. A pure
  /// function of (seed, plan seed, user): identical whether the user is
  /// being served or fanned into a friend's feed. A `writer` group (the
  /// served user issues a write) also carries its durable surface.
  GroupTimeline realize_group(graph::UserId user, bool writer) const {
    GroupTimeline g;
    util::Rng rng(util::mix64(placement_stream, user));
    if (config.regime == placement::StorageRegime::kSocialDht) {
      // The ring replaces the policy: the profile lives on the successor
      // nodes of its (socially remapped) key. The owner's local copy
      // always serves too, so the owner is dropped from the stored
      // selection on the rare ring that picks it. No draw is consumed —
      // the per-user placement stream simply goes unused.
      for (const graph::UserId n : dht->responsible_nodes(user))
        if (n != user) g.selection.push_back(n);
    } else {
      placement::PlacementContext ctx;
      ctx.user = user;
      ctx.candidates = dataset.graph.contacts(user);
      ctx.schedules = schedules;
      ctx.trace = &dataset.trace;
      ctx.connectivity = config.connectivity;
      ctx.max_replicas = config.replicas;
      g.selection = policy.select(ctx, rng);
    }
    if (config.regime == placement::StorageRegime::kSuperPeer) {
      // Volunteer storekeepers for a group that misses the availability
      // target; crashed volunteers are skipped (graceful re-assignment).
      // An empty directory (threshold 1.0) assigns nobody and the path
      // below is bit-identical to kReplicaGroup.
      std::vector<graph::UserId> group{user};
      group.insert(group.end(), g.selection.begin(), g.selection.end());
      g.storekeepers = directory->assign_storekeepers(
          user, group, seed, [this](graph::UserId v) {
            return churn->dht_crashed(v);
          });
    }

    // Members in fault-stream order: owner, selection, storekeepers.
    std::vector<const DaySchedule*> members{&schedules[user]};
    for (const auto* ids : {&g.selection, &g.storekeepers})
      for (const graph::UserId v : *ids) members.push_back(&schedules[v]);
    const std::size_t n = members.size();
    const int days = config.workload.horizon_days;

    net::FaultInjector injector(plan_for(user));
    if (writer && (relay_exists() || !g.selection.empty())) {
      // A served writer's durable surface (serving.hpp), built from the
      // owner's run and the selection's union, which `online` then unites
      // with the storekeepers' runs: every member is realized once.
      const std::size_t k = g.selection.size();
      const IntervalSet sel =
          session_runs(injector, members, 1, 1 + k, days).build();
      const IntervalSet owner =
          session_runs(injector, members, 0, 1, days).build();
      g.online =
          session_runs(injector, members, 1 + k, n, days, {&owner, &sel})
              .build_packed();
      const IntervalSet durable =
          config.regime == placement::StorageRegime::kSocialDht ? sel
          : relay_exists() ? owner.intersect(relay_up)
                           : owner.intersect(sel);
      g.durable.emplace(durable.pieces());
    } else {
      g.online = session_runs(injector, members, 0, n, days).build_packed();
    }
    g.session_pieces = injector.stats().session_pieces;
    injector.flush_stats();  // net.fault.*: once per realized group

    if (resilient) {
      // Advertised (unfaulted) surfaces for the resilience paths: daily
      // unions of every member, and of the top-2 members by advertised
      // daily online time (ties to the lower member index — owner first,
      // then selection order). The last use of `members`, so the hedge
      // reorders it in place.
      thread_local std::vector<Interval> scratch;
      for (const DaySchedule* s : members) g.ideal.unite_with(*s, &scratch);
      if (config.resilience.hedged_reads) {
        std::stable_sort(members.begin(), members.end(),
                         [](const DaySchedule* a, const DaySchedule* b) {
                           return a->online_seconds() > b->online_seconds();
                         });
        for (std::size_t i = 0; i < std::min<std::size_t>(n, 2); ++i)
          g.hedge.unite_with(*members[i], &scratch);
      }
    }
    return g;
  }
};

/// The run's realized groups: every profile the served users' requests
/// reference, realized exactly once before the request phase. `profiles`
/// is sorted and unique; `groups[i]` realizes `profiles[i]`. Read-only
/// while requests are served, so workers share it without locks.
struct GroupTable {
  std::vector<graph::UserId> profiles;
  std::vector<GroupTimeline> groups;

  const GroupTimeline& at(graph::UserId user) const {
    const auto it = std::lower_bound(profiles.begin(), profiles.end(), user);
    DOSN_CHECK(it != profiles.end() && *it == user,
               "serving: profile ", user, " missing from the group table");
    return groups[static_cast<std::size_t>(it - profiles.begin())];
  }
};

/// What a served user's requests need from the group table: the profiles
/// they read — its own (always), each profile-read target, and every
/// contact once it assembles a feed — and whether it writes.
struct References {
  std::vector<graph::UserId> profiles;
  bool writer = false;
};

References referenced_profiles(const RunContext& run, graph::UserId user) {
  const auto contacts = run.dataset.graph.contacts(user);
  References refs{{user}};
  bool feed = false;  // every contact is in; later reads add nothing
  for (const Request& r : run.requests(user)) {
    refs.writer |= r.kind == RequestKind::kPostWrite;
    if (contacts.empty() || feed) continue;
    if (r.kind == RequestKind::kProfileRead) {
      refs.profiles.push_back(contacts[r.target_index % contacts.size()]);
    } else if (r.kind == RequestKind::kFeedAssembly) {
      refs.profiles.insert(refs.profiles.end(), contacts.begin(),
                           contacts.end());
      feed = true;
    }
  }
  return refs;
}

/// Pre-pass over the served users, then one parallel realization of the
/// sorted, deduplicated profile list into the dense table; a writer's own
/// group is realized with its durable surface. Realization is a pure
/// function of (seed, user), so the table — and the placement obs
/// counters, one selection per profile — is thread-count invariant.
GroupTable build_group_table(const RunContext& run,
                             std::span<const graph::UserId> served,
                             util::ThreadPool* pool) {
  std::vector<References> refs(served.size());
  util::parallel_for_each(pool, served.size(), [&](std::size_t i) {
    refs[i] = referenced_profiles(run, served[i]);
  });
  GroupTable table;
  for (const auto& r : refs)
    table.profiles.insert(table.profiles.end(), r.profiles.begin(),
                          r.profiles.end());
  std::sort(table.profiles.begin(), table.profiles.end());
  table.profiles.erase(
      std::unique(table.profiles.begin(), table.profiles.end()),
      table.profiles.end());
  std::vector<graph::UserId> writers;
  for (std::size_t i = 0; i < served.size(); ++i)
    if (refs[i].writer) writers.push_back(served[i]);
  std::sort(writers.begin(), writers.end());
  table.groups.resize(table.profiles.size());
  util::parallel_for_each(pool, table.profiles.size(), [&](std::size_t i) {
    const graph::UserId p = table.profiles[i];
    table.groups[i] = run.realize_group(
        p, std::binary_search(writers.begin(), writers.end(), p));
  });
  return table;
}

/// Instant the client gives up on fresh data: the capped-backoff retry
/// schedule summed from `t`, clipped to the deadline budget. With no
/// retries the deadline alone (or `t` itself) times the give-up.
SimTime give_up_instant(const ResiliencePolicy& p, SimTime t) {
  SimTime give_up = t;
  Seconds backoff = p.retry_backoff;
  for (int i = 0; i < p.max_retries; ++i) {
    give_up += backoff;
    backoff = std::min(p.retry_backoff_cap, backoff * 2);
  }
  if (p.deadline > 0) give_up = std::min(give_up, t + p.deadline);
  return give_up;
}

/// One profile fetch: the primary (realized) wait raced against the
/// hedged and stale alternatives (serving.hpp). The naive client is the
/// zero policy: it takes the primary arrival at once, with no retries
/// counted. Every alternative is no earlier than the primary under the
/// zero plan, so an enabled policy then reproduces the naive request log
/// bit for bit. Ties go to the freshest path (primary, then hedge, then
/// stale).
struct FetchOutcome {
  std::optional<SimTime> arrival;
  std::uint32_t retries = 0;
  bool hedged = false;
  bool hedge_win = false;
  bool stale_win = false;
};

FetchOutcome fetch(const RunContext& run, const GroupTimeline& group,
                   SimTime t) {
  const ResiliencePolicy& p = run.config.resilience;
  FetchOutcome out;
  // Primary: the realized group, or under UnconRep the persistent store
  // whenever the relay is up.
  std::optional<SimTime> best = group.online.next_at_or_after(t);
  if (run.relay_exists()) {
    const SimTime relay = *run.relay_up.next_at_or_after(t);
    best = best ? std::min(*best, relay) : relay;
  }
  if (!run.resilient) {
    out.arrival = best;
    return out;
  }

  if (p.hedged_reads && (!best || *best > t + p.hedge_delay)) {
    // Primary not done by the hedge delay: launch the hedge against the
    // top-2 members' advertised surface.
    out.hedged = true;
    const auto hedge =
        group.hedge.next_online(t + p.hedge_delay, run.horizon);
    if (hedge && (!best || *hedge < *best)) {
      best = hedge;
      out.hedge_win = true;
    }
  }
  if (p.stale_failover) {
    // The freshest gossip-cached copy: retrievable from the give-up
    // instant onward whenever a group member would be online per its
    // advertised schedule, at the staleness tax.
    const auto cached = group.ideal.next_online(t, run.horizon);
    if (cached) {
      const SimTime stale =
          std::max(give_up_instant(p, t), *cached) + p.stale_read_tax;
      if (!best || stale < *best) {
        best = stale;
        out.hedge_win = false;
        out.stale_win = true;
      }
    }
  }
  // Retries that actually fired: schedule instants before completion (all
  // scheduled instants when the request is never served).
  SimTime at = t;
  Seconds backoff = p.retry_backoff;
  for (int i = 0; i < p.max_retries; ++i) {
    at += backoff;
    backoff = std::min(p.retry_backoff_cap, backoff * 2);
    if (p.deadline > 0 && at > t + p.deadline) break;
    if (!best || at < *best) ++out.retries;
  }
  out.arrival = best;
  return out;
}

void serve_user(const RunContext& run, const GroupTable& groups,
                graph::UserId user, UserLoad& load) {
  const auto contacts = run.dataset.graph.contacts(user);
  const auto requests = run.requests(user);

  const GroupTimeline& own = groups.at(user);
  const bool dht_regime =
      run.config.regime == placement::StorageRegime::kSocialDht;

  // Regime axes of the served user's own profile (regime-independent —
  // kReplicaGroup reports them too, which is what turns the degeneracy
  // differentials into whole-report equalities).
  load.regime.groups += 1;
  load.regime.replica_holders +=
      own.selection.size() + own.storekeepers.size();
  load.regime.storekeepers += own.storekeepers.size();
  load.regime.online_seconds +=
      static_cast<std::uint64_t>(own.online.measure());

  const ResiliencePolicy& policy = run.config.resilience;
  const Seconds crypto = run.config.crypto_op_cost;
  const auto fetch_noted = [&](const GroupTimeline& group, SimTime t) {
    const FetchOutcome o = fetch(run, group, t);
    load.res.retries += o.retries;
    if (o.hedged) ++load.res.hedges;
    if (o.hedge_win) ++load.res.hedge_wins;
    if (o.stale_win) ++load.res.stale_served;
    return o.arrival;
  };
  std::vector<SimTime> arrivals;  // feed scratch, reused across requests
  std::vector<graph::UserId> feed_owners;  // DHT fan-in scratch
  for (const auto& r : requests) {
    std::optional<Seconds> latency;
    // Extra wait the storage regime itself charges this request (DHT
    // routing hops at hop_cost each); 0 outside kSocialDht. Applied after
    // the switch so every exit path of every kind pays it uniformly.
    Seconds regime_tax = 0;
    switch (r.kind) {
      case RequestKind::kProfileRead: {
        if (contacts.empty()) {
          latency = 0;
        } else {
          const graph::UserId target =
              contacts[r.target_index % contacts.size()];
          if (dht_regime) {
            const auto l = run.dht->lookup_from(user, target);
            ++load.regime.lookups;
            load.regime.lookup_hops += l.hops;
            regime_tax = run.config.social_dht.hop_cost *
                         static_cast<Seconds>(l.hops);
          }
          if (const auto arrival = fetch_noted(groups.at(target), r.time))
            latency = *arrival - r.time;
        }
        if (latency) *latency += crypto;
        break;
      }
      case RequestKind::kFeedAssembly: {
        if (dht_regime) {
          // Fan-in resolution: every friend's key is resolved, but a
          // friend whose owner node was already contacted by this feed is
          // a replica-locality hit and routes for free — the payoff of
          // the socially-aware remap (cluster-mates share owner arcs).
          feed_owners.clear();
          std::size_t route_hops = 0;
          for (std::size_t i = 0; i < contacts.size(); ++i) {
            const graph::UserId owner = run.dht->owner_of(contacts[i]);
            ++load.regime.lookups;
            if (std::find(feed_owners.begin(), feed_owners.end(), owner) !=
                feed_owners.end()) {
              ++load.regime.locality_hits;
            } else {
              feed_owners.push_back(owner);
              const auto l = run.dht->lookup_from(user, contacts[i]);
              load.regime.lookup_hops += l.hops;
              route_hops += l.hops;
            }
          }
          regime_tax = run.config.social_dht.hop_cost *
                       static_cast<Seconds>(route_hops);
        }
        // Fan-in: the feed completes with the slowest friend fetch, and
        // one unreachable friend leaves it unassembled (unserved) — the
        // naive client stops fetching there. A resilient feed fetches
        // every friend (each fetch counts its retries and hedges). With
        // degrade_feeds, a feed whose slowest fetches blow the feed
        // budget is served partial at the budget instant when coverage
        // allows (serving.hpp). The budget is never below the ideal feed
        // completion, so under the zero plan the full feed is always
        // served and the outcome matches the naive path bit for bit.
        arrivals.clear();
        bool reachable = true;
        SimTime done = r.time;
        bool budgetable = policy.degrade_feeds;
        SimTime ideal_done = r.time;
        for (const graph::UserId f : contacts) {
          const GroupTimeline& fg = groups.at(f);
          const auto arrival = fetch_noted(fg, r.time);
          if (arrival) {
            if (budgetable) arrivals.push_back(*arrival);
            done = std::max(done, *arrival);
          } else {
            reachable = false;
            if (!run.resilient) break;
          }
          if (budgetable) {
            const auto ideal = fg.ideal.next_online(r.time, run.horizon);
            if (ideal)
              ideal_done = std::max(ideal_done, *ideal);
            else
              budgetable = false;
          }
        }
        std::optional<SimTime> budget;
        if (budgetable)
          budget = std::max(ideal_done,
                            r.time + std::max(policy.deadline,
                                              run.config.slo));
        const Seconds fan_crypto =
            crypto * static_cast<Seconds>(contacts.size());
        double coverage = -1.0;
        if (reachable && (!budget || done <= *budget)) {
          latency = done - r.time + fan_crypto;
          coverage = 1.0;
        } else if (budget) {
          std::size_t kept = 0;
          for (const SimTime a : arrivals)
            if (a <= *budget) ++kept;
          const double cov =
              contacts.empty() ? 1.0
                               : static_cast<double>(kept) /
                                     static_cast<double>(contacts.size());
          if (cov >= policy.feed_min_coverage) {
            latency = *budget - r.time + fan_crypto;
            coverage = cov;
            ++load.res.degraded_feeds;
          } else if (reachable) {
            latency = done - r.time + fan_crypto;
            coverage = 1.0;
          }
        }
        if (coverage >= 0.0) {
          load.res.feed_coverage_sum += coverage;
          ++load.res.feed_coverage_count;
        }
        break;
      }
      case RequestKind::kPostWrite: {
        // No surface: the owner alone holds the profile (local durability).
        const auto durable =
            own.durable ? own.durable->next_at_or_after(r.time)
                        : std::optional<SimTime>(r.time);
        if (durable)
          latency = *durable - r.time +
                    crypto * static_cast<Seconds>(1 + own.selection.size());
        break;
      }
    }
    if (latency) *latency += regime_tax;

    KindStats& stats = r.kind == RequestKind::kProfileRead ? load.read
                       : r.kind == RequestKind::kFeedAssembly ? load.feed
                                                              : load.write;
    ++stats.requests;
    if (latency) {
      stats.latency.record(*latency);
      if (*latency > run.config.slo) ++stats.slo_misses;
    } else {
      ++stats.unserved;
      ++stats.slo_misses;
    }

    fnv_mix(load.digest, static_cast<std::uint64_t>(r.kind));
    fnv_mix(load.digest, static_cast<std::uint64_t>(r.time));
    fnv_mix(load.digest,
            latency ? static_cast<std::uint64_t>(*latency) + 1 : 0);
  }
}

/// Publishes the run's serving counters and latency histograms once, from
/// the reduced report and the group table (serve.surface_pieces: the
/// pieces its surfaces store).
void publish_counters(const ServingReport& report, const GroupTable& table) {
  std::uint64_t pieces = 0, surface = 0;
  for (const GroupTimeline& g : table.groups) {
    pieces += g.session_pieces;
    surface += g.online.piece_count() + g.ideal.set().piece_count() +
               g.hedge.set().piece_count() +
               (g.durable ? g.durable->piece_count() : 0);
  }
  obs::Registry& registry = obs::Registry::global();
  const std::pair<const char*, std::uint64_t> totals[] = {
      {"serve.session_pieces", pieces},
      {"serve.surface_pieces", surface},
      {"serve.requests", report.requests},
      {"serve.unserved", report.unserved},
      {"serve.slo_misses", report.slo_misses},
      {"serve.resilience.retries", report.resilience.retries},
      {"serve.resilience.hedges", report.resilience.hedges},
      {"serve.resilience.hedge_wins", report.resilience.hedge_wins},
      {"serve.resilience.stale_served", report.resilience.stale_served},
      {"serve.resilience.degraded_feeds", report.resilience.degraded_feeds},
      {"net.social_dht.lookups", report.regime.lookups},
      {"net.social_dht.lookup_hops", report.regime.lookup_hops},
      {"net.social_dht.locality_hits", report.regime.locality_hits},
      {"placement.super_peer.storekeepers", report.regime.storekeepers},
  };
  for (const auto& [name, value] : totals) registry.counter(name).add(value);
  const std::pair<const char*, const KindStats*> latencies[] = {
      {"serve.latency.read", &report.read},
      {"serve.latency.feed", &report.feed},
      {"serve.latency.write", &report.write}};
  for (const auto& [name, kind] : latencies)
    registry.histogram(name, kind->latency.bounds())
        .add(kind->latency.buckets(), kind->latency.sum());
}

void merge_kind(KindStats& into, const KindStats& from) {
  into.latency.merge(from.latency);
  into.requests += from.requests;
  into.unserved += from.unserved;
  into.slo_misses += from.slo_misses;
}

void merge_res(ResilienceStats& into, const ResilienceStats& from) {
  into.retries += from.retries;
  into.hedges += from.hedges;
  into.hedge_wins += from.hedge_wins;
  into.stale_served += from.stale_served;
  into.degraded_feeds += from.degraded_feeds;
  into.feed_coverage_sum += from.feed_coverage_sum;
  into.feed_coverage_count += from.feed_coverage_count;
}

void merge_regime(RegimeStats& into, const RegimeStats& from) {
  into.groups += from.groups;
  into.replica_holders += from.replica_holders;
  into.storekeepers += from.storekeepers;
  into.online_seconds += from.online_seconds;
  into.lookups += from.lookups;
  into.lookup_hops += from.lookup_hops;
  into.locality_hits += from.locality_hits;
}

}  // namespace

void validate(const ResiliencePolicy& policy) {
  if (policy.hedge_delay < 0)
    throw ConfigError("resilience: hedge_delay must be >= 0");
  if (policy.stale_read_tax < 0)
    throw ConfigError("resilience: stale_read_tax must be >= 0");
  if (policy.max_retries < 0 || policy.max_retries > 32)
    throw ConfigError("resilience: max_retries must be in [0, 32]");
  if (policy.max_retries > 0) {
    if (policy.retry_backoff <= 0)
      throw ConfigError("resilience: retry_backoff must be > 0");
    if (policy.retry_backoff_cap < policy.retry_backoff)
      throw ConfigError("resilience: retry_backoff_cap must be >= retry_backoff");
  }
  if (policy.deadline < 0)
    throw ConfigError("resilience: deadline must be >= 0");
  if (!(policy.feed_min_coverage >= 0.0 && policy.feed_min_coverage <= 1.0))
    throw ConfigError("resilience: feed_min_coverage must be in [0, 1]");
}

void validate(const ServingConfig& config) {
  validate(config.workload);
  net::validate(config.faults);
  validate(config.resilience);
  net::validate(config.social_dht);
  placement::validate(config.super_peer);
  if (config.regime != placement::StorageRegime::kReplicaGroup &&
      config.connectivity != placement::Connectivity::kConRep)
    throw ConfigError(
        "serving: DHT and super-peer regimes require ConRep connectivity");
  if (config.crypto_op_cost < 0)
    throw ConfigError("serving: crypto_op_cost must be >= 0");
  if (config.slo < 0)
    throw ConfigError("serving: slo must be >= 0");
  if (config.workload.horizon_days * interval::kDaySeconds >
      std::numeric_limits<std::uint32_t>::max())
    throw ConfigError(
        "serving: horizon_days must be <= 49710 (surfaces are 32-bit)");
}

ServingReport run_serving_study(const trace::Dataset& dataset,
                                std::span<const DaySchedule> schedules,
                                std::span<const graph::UserId> cohort,
                                std::uint64_t seed,
                                const ServingConfig& config,
                                util::ThreadPool* pool) {
  validate(config);
  DOSN_REQUIRE(schedules.size() == dataset.num_users(),
               "serving: schedules must span every user");

  const std::size_t served =
      config.served_users == 0
          ? cohort.size()
          : std::min(config.served_users, cohort.size());

  const auto policy =
      placement::make_policy(config.policy, config.policy_params);

  // Regime substrates, built once and shared read-only by every worker.
  std::optional<net::SocialDht> dht;
  std::optional<placement::SuperPeerDirectory> directory;
  std::optional<net::FaultInjector> churn;
  if (config.regime == placement::StorageRegime::kSocialDht)
    dht.emplace(dataset.graph, config.social_dht);
  if (config.regime == placement::StorageRegime::kSuperPeer) {
    directory.emplace(schedules, config.super_peer);
    churn.emplace(config.faults);  // global seed: shared volunteer state
  }

  RunContext run{
      .dataset = dataset,
      .schedules = schedules,
      .config = config,
      .policy = *policy,
      .seed = seed,
      .placement_stream = util::mix64(seed, kPlacementTag),
      .horizon = static_cast<SimTime>(config.workload.horizon_days) *
                 interval::kDaySeconds,
      .resilient = !config.resilience.zero(),
      .flash = std::any_of(config.faults.scenario.flash_crowds.begin(),
                           config.faults.scenario.flash_crowds.end(),
                           [](const net::FlashCrowd& c) { return c.active(); }),
      .relay_up = {},
      .dht = dht ? &*dht : nullptr,
      .directory = directory ? &*directory : nullptr,
      .churn = churn ? &*churn : nullptr,
  };

  if (run.relay_exists()) {
    IntervalSet outages;
    for (const auto& w : config.faults.relay_outages)
      if (w.start < w.end) outages.add(w.start, w.end);
    run.relay_up = IntervalSet::single(0, std::numeric_limits<SimTime>::max())
                       .subtract(outages.clip(0, run.horizon));
  }

  // Fan out into per-index slots; stealing reorders execution only.
  const GroupTable groups = build_group_table(run, cohort.first(served), pool);
  std::vector<UserLoad> loads(served);
  util::parallel_for_each(pool, served, [&](std::size_t i) {
    serve_user(run, groups, cohort[i], loads[i]);
  });

  // Serial reduction in cohort order: the one floating-point-free fold
  // that makes every aggregate (and the checksum) thread-count invariant.
  ServingReport report;
  report.served_users = served;
  report.horizon = run.horizon;
  report.request_log_checksum = kFnvOffset;
  for (std::size_t i = 0; i < served; ++i) {
    merge_kind(report.read, loads[i].read);
    merge_kind(report.feed, loads[i].feed);
    merge_kind(report.write, loads[i].write);
    merge_res(report.resilience, loads[i].res);
    merge_regime(report.regime, loads[i].regime);
    fnv_mix(report.request_log_checksum,
            static_cast<std::uint64_t>(cohort[i]));
    fnv_mix(report.request_log_checksum, loads[i].digest);
  }
  report.latency.merge(report.read.latency);
  report.latency.merge(report.feed.latency);
  report.latency.merge(report.write.latency);
  report.requests =
      report.read.requests + report.feed.requests + report.write.requests;
  report.unserved =
      report.read.unserved + report.feed.unserved + report.write.unserved;
  report.slo_misses = report.read.slo_misses + report.feed.slo_misses +
                      report.write.slo_misses;
  report.served = report.requests - report.unserved;
  publish_counters(report, groups);
  return report;
}

}  // namespace dosn::serve
