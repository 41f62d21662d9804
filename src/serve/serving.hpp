// Request-level serving study: what a user actually waits for.
//
// Every prior metric in this repository is analytic or sim-aggregate
// (schedule-level availability, worst-case propagation delay). This layer
// issues *requests* — profile reads, feed assemblies, post writes — from a
// deterministic per-user workload (serve/workload.hpp) against the replica
// placements a policy chose, and measures the latency each request
// realizes under churn and injected faults (DESIGN.md §14):
//
//   * profile read of friend f — wait from the request instant until any
//     member of f's replica group (f plus f's selected replicas) is
//     online under the *realized* (fault-degraded) sessions; under
//     UnconRep the persistent store serves immediately whenever the relay
//     is up, so the wait is min(relay wait, group wait).
//   * feed assembly — fan-in: the max of the per-friend profile-read
//     waits over all contacts (the feed completes with the slowest
//     fetch); unreachable within the horizon => the request is unserved.
//   * post write — durability latency: the wait until a realized
//     *durable surface* next covers an instant, under the same fault
//     realization as the read path. Under ConRep the surface is the owner
//     online together with any selected replica: anti-entropy moves an
//     update only between simultaneously online members, so that is the
//     write's earliest arrival at a non-origin replica (the instant
//     net::simulate_replica_group would report; DESIGN.md §14). Under
//     UnconRep it is the owner online while the relay is up (upload to
//     the persistent store); under kSocialDht the non-owner responsible
//     nodes (a DHT put). A single-node group writes locally (latency 0)
//     under ConRep. The surface is built once, when the served writer's
//     own group is realized, from the same member runs as the group's
//     read surface: no session is realized twice.
//
// Every referenced profile's group is realized once per run, before any
// request, into a read-only group table. Its realized surfaces (read,
// durable) are stored as 32-bit absolute horizon seconds
// (interval::PackedSet), half the size of 64-bit intervals; that is why
// the horizon is bounded by UINT32_MAX seconds (49,710 days). The
// advertised surfaces of the resilience paths (stale copy, hedge) are
// unfaulted, so they stay daily schedules (interval::DaySchedule).
//
// A DECENT-style crypto-cost knob taxes every object operation: reads add
// one op, feeds one per friend profile, writes 1 + |selection| ops
// (encrypt plus per-replica key distribution), modeling per-op
// cryptography on the serving path (Jahid et al.).
//
// Determinism discipline (same as the study engine): placements are
// selected on the *ideal* schedules from per-user streams
// mix64(mix64(seed, kPlacementTag), user); fault realizations come from
// per-user plans whose seed is mix64(plan.seed, user), so a user's group
// realization is identical whether it is being served or fanned into a
// friend's feed, and scaled() plans stay nested across intensities.
// Users fan out over a util::ThreadPool into per-index slots and reduce
// serially in cohort order: the request-log checksum is bit-identical
// over every thread count and DOSN_OBS setting.
#pragma once

#include <cstdint>
#include <span>

#include "net/fault.hpp"
#include "net/social_dht.hpp"
#include "placement/policy.hpp"
#include "placement/super_peer.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/workload.hpp"
#include "trace/dataset.hpp"
#include "util/thread_pool.hpp"

namespace dosn::serve {

/// Client-side resilience on the serving path (DESIGN.md §15). Every
/// mechanism is formulated as an *alternative arrival* the client races
/// against the primary wait, each alternative provably no earlier than
/// the primary under the zero FaultPlan — so an enabled policy under the
/// zero plan reproduces the naive request log bit for bit, and under
/// faults a resilient request is never served later than its naive
/// counterpart:
///
///   * hedged reads   — after `hedge_delay` without primary completion
///     the client re-issues the read to the top-2 availability-ranked
///     replica-group members over the hardened gossip path, which serves
///     on their *advertised* (ideal) schedules: the retransmission
///     machinery masks the transient faults the primary wait is exposed
///     to, at the cost of the hedge delay and the duplicated work the
///     hedge counters record.
///   * stale failover — once the retry budget is exhausted (the capped-
///     backoff schedule below, clipped to `deadline`), the client
///     falls back to the freshest gossip-cached copy, retrievable from
///     the give-up instant onward whenever any group member would be
///     online per its advertised schedule, at a `stale_read_tax`.
///   * retries        — capped exponential backoff (retry_backoff,
///     doubling, capped at retry_backoff_cap, at most max_retries). A
///     retry against the realized group timeline can never complete
///     earlier, so the schedule's role is to *time the give-up* that
///     unlocks stale failover; the retry counters measure wasted work.
///   * feed degradation — a feed whose slowest friends blow the feed
///     budget (max of the ideal feed completion, the deadline and the
///     SLO — degrading below the SLO would trade a hit for a miss) is
///     served partial at the budget instant when the covered fraction of
///     friends reaches `feed_min_coverage`, instead of an unserved miss.
struct ResiliencePolicy {
  bool hedged_reads = false;
  Seconds hedge_delay = 300;
  bool stale_failover = false;
  Seconds stale_read_tax = 120;
  int max_retries = 3;
  Seconds retry_backoff = 60;
  Seconds retry_backoff_cap = 960;
  /// Per-request deadline budget in seconds; clips the retry schedule.
  /// 0 = the backoff sum alone times the give-up.
  Seconds deadline = 0;
  bool degrade_feeds = false;
  /// Minimum served fraction of friends for a degraded (partial) feed.
  double feed_min_coverage = 0.5;

  /// True when no mechanism is enabled (the naive serving path).
  bool zero() const {
    return !hedged_reads && !stale_failover && !degrade_feeds;
  }
  friend bool operator==(const ResiliencePolicy&, const ResiliencePolicy&) =
      default;
};

/// Throws ConfigError on out-of-range knobs.
void validate(const ResiliencePolicy& policy);

struct ServingConfig {
  WorkloadConfig workload;
  placement::PolicyKind policy = placement::PolicyKind::kMaxAv;
  placement::PolicyParams policy_params;
  placement::Connectivity connectivity = placement::Connectivity::kConRep;
  /// Storage regime profiles are served from (DESIGN.md §16):
  ///   * kReplicaGroup — the paper's regime: the policy's selection
  ///     under ConRep/UnconRep (every knob below applies unchanged);
  ///   * kSocialDht    — profiles live on the successor nodes of the
  ///     socially-remapped ring in `social_dht`; the policy is bypassed,
  ///     reads pay lookup hops (taxed at social_dht.hop_cost), and a
  ///     write waits for the first non-owner responsible node;
  ///   * kSuperPeer    — the policy selection extended by volunteer
  ///     storekeepers from `super_peer` for profiles whose group misses
  ///     the availability target; storekeepers widen the read surface
  ///     only (writes stay on the replica group, so volunteer_threshold
  ///     = 1.0 — an empty directory — reproduces kReplicaGroup bit for
  ///     bit).
  /// DHT and super-peer regimes require ConRep connectivity: the regime
  /// itself replaces the UnconRep relay.
  placement::StorageRegime regime = placement::StorageRegime::kReplicaGroup;
  /// Ring knobs of the kSocialDht regime (ignored otherwise).
  net::SocialDhtConfig social_dht;
  /// Storekeeper knobs of the kSuperPeer regime (ignored otherwise).
  placement::SuperPeerConfig super_peer;
  /// Replica budget per profile (the sweep's k).
  std::size_t replicas = 5;
  /// Fault scenario; the zero plan serves ideal schedules. Realizations
  /// are per-user-seeded (mix64(faults.seed, user)) and nested across
  /// scaled() intensities.
  net::FaultPlan faults;
  /// Client-side resilience mechanisms; the default policy is the naive
  /// serving path (zero()). An enabled policy under the zero fault plan
  /// reproduces the naive request log bit for bit.
  ResiliencePolicy resilience;
  /// DECENT-style per-crypto-op latency tax in seconds (0 = off).
  Seconds crypto_op_cost = 0;
  /// A served request slower than this misses its SLO; unserved requests
  /// always miss.
  Seconds slo = 600;
  /// Serve only the first `served_users` cohort members (0 = all).
  std::size_t served_users = 0;
};

/// Throws ConfigError on out-of-range knobs, including a horizon whose
/// seconds exceed UINT32_MAX (more than 49,710 days).
void validate(const ServingConfig& config);

/// Aggregate over one request kind.
struct KindStats {
  LatencyHistogram latency;  ///< served requests only
  std::uint64_t requests = 0;
  std::uint64_t unserved = 0;    ///< not serveable within the horizon
  std::uint64_t slo_misses = 0;  ///< served-too-slow plus unserved

  friend bool operator==(const KindStats&, const KindStats&) = default;
};

/// Resilience-path effort and outcome totals (all zero on the naive
/// path except feed coverage, which records 1.0 per served full feed).
/// Every field is a pure function of the run's timelines, so the totals
/// are bit-identical across thread counts and DOSN_OBS settings.
struct ResilienceStats {
  std::uint64_t retries = 0;        ///< retry attempts actually fired
  std::uint64_t hedges = 0;         ///< hedged reads launched
  std::uint64_t hedge_wins = 0;     ///< requests the hedge served first
  std::uint64_t stale_served = 0;   ///< requests served from a stale copy
  std::uint64_t degraded_feeds = 0; ///< feeds served partial
  /// Sum / count of per-served-feed coverage fractions (full feed = 1.0).
  double feed_coverage_sum = 0.0;
  std::uint64_t feed_coverage_count = 0;

  double feed_coverage_mean() const {
    return feed_coverage_count == 0
               ? 1.0
               : feed_coverage_sum /
                     static_cast<double>(feed_coverage_count);
  }
  friend bool operator==(const ResilienceStats&, const ResilienceStats&) =
      default;
};

/// Storage-regime aggregates: the four comparison axes of the regime
/// ablation (availability / access delay / replication degree / lookup
/// hops — bench/ablation_storage_regimes). Accumulated per served user
/// from that user's own realized group and the DHT resolutions of its
/// read path, and reduced serially in cohort order — every field is
/// integer math, bit-identical across thread counts and DOSN_OBS
/// settings. All lookup fields stay zero outside kSocialDht; the
/// group fields are regime-independent (kReplicaGroup reports them
/// too, which is what makes the degeneracy differentials whole-report
/// equalities).
struct RegimeStats {
  std::uint64_t groups = 0;          ///< served users' profiles realized
  std::uint64_t replica_holders = 0; ///< group members beyond the owner
  std::uint64_t storekeepers = 0;    ///< super-peer assignments among them
  std::uint64_t online_seconds = 0;  ///< realized group-union online time
  std::uint64_t lookups = 0;         ///< DHT profile-key resolutions
  std::uint64_t lookup_hops = 0;     ///< greedy-route hops actually paid
  std::uint64_t locality_hits = 0;   ///< fan-in hits on a contacted owner

  /// Mean fraction of the horizon a served user's realized group union
  /// is online — the regime ablation's availability axis.
  double availability(Seconds horizon) const {
    return groups == 0 || horizon <= 0
               ? 0.0
               : static_cast<double>(online_seconds) /
                     (static_cast<double>(groups) *
                      static_cast<double>(horizon));
  }
  /// Mean group members beyond the owner (storekeepers included).
  double replication_degree() const {
    return groups == 0 ? 0.0
                       : static_cast<double>(replica_holders) /
                             static_cast<double>(groups);
  }
  /// Mean greedy-route hops per resolution (locality hits pay none).
  double mean_lookup_hops() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(lookup_hops) /
                              static_cast<double>(lookups);
  }
  friend bool operator==(const RegimeStats&, const RegimeStats&) = default;
};

struct ServingReport {
  KindStats read;
  KindStats feed;
  KindStats write;
  ResilienceStats resilience;
  RegimeStats regime;
  LatencyHistogram latency;  ///< all served requests
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  std::uint64_t slo_misses = 0;
  std::size_t served_users = 0;
  Seconds horizon = 0;
  /// Order-sensitive FNV-1a digest over (user, kind, time, latency) of
  /// every request in cohort-then-time order; unserved requests
  /// contribute a distinct sentinel. Bit-identical across thread counts —
  /// the bench's parallel-correctness probe.
  std::uint64_t request_log_checksum = 0;

  double slo_miss_fraction() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(slo_misses) / static_cast<double>(requests);
  }
  /// Requests served within the SLO per simulated second.
  double goodput_rps() const {
    return horizon <= 0 ? 0.0
                        : static_cast<double>(requests - slo_misses) /
                              static_cast<double>(horizon);
  }

  friend bool operator==(const ServingReport&, const ServingReport&) = default;
};

/// Runs the serving study over `cohort` (truncated to
/// config.served_users). `schedules` spans every user of the dataset —
/// the ideal advertised schedules placements are chosen on. Fans out over
/// `pool` (null or single-threaded = serial reference order).
ServingReport run_serving_study(const trace::Dataset& dataset,
                                std::span<const interval::DaySchedule> schedules,
                                std::span<const graph::UserId> cohort,
                                std::uint64_t seed,
                                const ServingConfig& config,
                                util::ThreadPool* pool = nullptr);

}  // namespace dosn::serve
