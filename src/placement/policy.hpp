// Replica-selection policies (Sec III of the paper).
//
// Given a user, his contacts (trusted friends resp. followers) and
// everyone's daily online schedule, a policy returns an ordered list of
// replica holders. The order is a *selection order*: the k-replica
// configuration of the paper's sweeps is exactly the length-k prefix, and
// for ConRep every prefix satisfies the time-connectivity constraint
// because policies build their selection incrementally.
//
// ConRep (connected replicas): each new replica must overlap in time with
// the owner or with at least one already-selected replica. The owner's own
// schedule seeds the connectivity set — the profile originates at the
// owner. If the owner is never online, the first replica seeds
// connectivity instead. UnconRep: no constraint (replicas exchange updates
// through third-party storage). Every policy asks one
// detail::ConnectivityFrontier, through a caller-owned PlacementScratch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "interval/day_schedule.hpp"
#include "interval/delay_graph.hpp"
#include "trace/activity.hpp"
#include "util/rng.hpp"

namespace dosn::placement {

using graph::UserId;
using interval::DaySchedule;
using interval::Seconds;

enum class Connectivity { kConRep, kUnconRep };

std::string to_string(Connectivity c);

/// Where a profile's replicas live — the storage-regime axis the serving
/// layer dispatches on (DESIGN.md §16). kReplicaGroup is the paper's
/// friend-replica regime (a ReplicaPolicy selection under ConRep or
/// UnconRep); kSocialDht stores profiles on the successor nodes of a
/// socially-remapped DHT ring (net/social_dht.hpp); kSuperPeer extends
/// the policy selection with volunteer storekeepers for users whose
/// replica group misses a target availability (placement/super_peer.hpp).
enum class StorageRegime { kReplicaGroup, kSocialDht, kSuperPeer };

std::string to_string(StorageRegime regime);

/// Inputs for placing the replicas of one user's profile.
struct PlacementContext {
  UserId user = 0;
  /// Eligible replica holders: contacts(user) in the social graph.
  std::span<const UserId> candidates;
  /// Daily schedules of *all* users (indexed by UserId).
  std::span<const DaySchedule> schedules;
  /// Activity trace (MostActive ranking; MaxAv activity universe). May be
  /// null for policies that do not need it.
  const trace::ActivityTrace* trace = nullptr;
  Connectivity connectivity = Connectivity::kConRep;
  /// Maximum number of replicas to select (the sweep's k).
  std::size_t max_replicas = 0;

  const DaySchedule& schedule_of(UserId u) const {
    DOSN_ASSERT(u < schedules.size());
    return schedules[u];
  }
  const DaySchedule& candidate_schedule(std::size_t i) const {
    return schedule_of(candidates[i]);
  }
};

namespace detail {

/// Which candidates a selection may pick next (DESIGN.md §2). Under ConRep
/// a candidate must overlap a source (the owner if ever online, or a pick);
/// its cursor makes each (candidate, source) pair tested at most once, and
/// only when a policy asks. With no source yet, any online candidate
/// qualifies; under UnconRep every candidate does.
class ConnectivityFrontier {
 public:
  /// Starts a selection for `context`, which must outlive it.
  void reset(const PlacementContext& context) {
    context_ = &context;
    conrep_ = context.connectivity == Connectivity::kConRep;
    if (!conrep_) return;
    const DaySchedule& owner = context.schedule_of(context.user);
    sources_.assign(owner.empty() ? 0 : 1, &owner);
    sources_.reserve(context.candidates.size() + 1);
    cursor_.assign(context.candidates.size(), 0);
  }

  /// May candidate i (an index into context.candidates) be picked?
  bool connected(std::size_t i) {
    if (!conrep_) return true;
    const DaySchedule& candidate = context_->candidate_schedule(i);
    if (sources_.empty()) return !candidate.empty();
    std::uint32_t& cursor = cursor_[i];
    while (cursor < sources_.size()) {
      ++tests_;
      if (candidate.intersects(*sources_[cursor++])) cursor = kConnected;
    }
    return cursor == kConnected;
  }

  /// Records candidate i as picked: one more source, no test.
  void pick(std::size_t i) {
    if (conrep_) sources_.push_back(&context_->candidate_schedule(i));
  }

  /// `intersects` calls since the last take, and restarts the tally.
  std::uint64_t take_tests() { return std::exchange(tests_, 0); }

 private:
  static constexpr std::uint32_t kConnected = UINT32_MAX;

  const PlacementContext* context_ = nullptr;
  bool conrep_ = false;
  std::vector<const DaySchedule*> sources_;
  std::vector<std::uint32_t> cursor_;  ///< next source, or kConnected
  std::uint64_t tests_ = 0;
};

/// A CELF heap entry (placement/max_av.cpp). The least-overlap rule keeps
/// its overlap bounds beside the heap, in PlacementScratch::overlap.
struct LazyEntry {
  std::int64_t gain = 0;  ///< upper bound on the current marginal gain
  std::size_t index = 0;
  std::size_t stamp = 0;  ///< picks made when `gain` was computed
};

}  // namespace detail

/// Every buffer a selection uses, owned by the caller so a shard can reuse
/// one across its users: once warmed on a user at least as large, select
/// allocates nothing.
struct PlacementScratch {
  /// Starts a round-by-round selection: nothing picked yet.
  void start(const PlacementContext& context) {
    frontier.reset(context);
    used.assign(context.candidates.size(), 0);
  }
  bool eligible(std::size_t i) { return !used[i] && frontier.connected(i); }
  void take(const PlacementContext& context, std::size_t i) {
    used[i] = 1;
    selection.push_back(context.candidates[i]);
    frontier.pick(i);
  }

  detail::ConnectivityFrontier frontier;
  std::vector<std::uint8_t> used;         ///< per candidate
  std::vector<detail::LazyEntry> heap;    ///< MaxAv CELF
  std::vector<detail::LazyEntry> parked;  ///< CELF: not connected yet
  std::vector<std::int64_t> overlap;  ///< CELF least-overlap bounds
  /// MostActive: activity counts, the rank order and its zero-activity
  /// tail; Random's connected list (all by candidate index).
  std::vector<std::size_t> counts;
  std::vector<std::size_t> order;
  std::vector<std::size_t> idle;
  interval::IntervalSet covered;  ///< MaxAv, CoreGroup and Hybrid cover
  std::vector<interval::Interval> cover_buffer;  ///< unite_with spare
  std::vector<Seconds> points;    ///< MaxAv activity instants
  std::vector<std::uint8_t> point_covered;
  /// CoreGroup: owner at memo key 0 and candidate i at key i + 1, the
  /// picked group, and the copy of it each candidate is tried on.
  interval::PairDelayMemo memo;
  interval::IncrementalGroupDelay group{interval::RendezvousMode::kDirect};
  interval::IncrementalGroupDelay trial{interval::RendezvousMode::kDirect};
  /// Hybrid: normalized activity per candidate, and the eligible pool
  /// with raw coverage gains.
  std::vector<double> activity;
  std::vector<std::pair<std::size_t, Seconds>> pool;
  std::vector<UserId> selection;  ///< what select returns
};

class ReplicaPolicy {
 public:
  virtual ~ReplicaPolicy() = default;

  virtual std::string name() const = 0;

  /// True when selection draws randomness the methodology averages over
  /// (the paper repeats Random placement five times).
  virtual bool randomized() const { return false; }

  /// Replica holders in selection order; size <= max_replicas (policies
  /// may stop early: MaxAv stops when coverage no longer improves, ConRep
  /// stops when no remaining candidate is time-connected). The span views
  /// scratch.selection.
  ///
  /// Non-virtual template method: runs the policy's select_impl and then
  /// enforces the placement contract (within budget, drawn from the
  /// candidate set, duplicate-free) with DOSN_CHECK — a policy that
  /// violates it throws util::ContractError instead of silently skewing
  /// every downstream availability/delay figure.
  std::span<const UserId> select(const PlacementContext& context,
                                 util::Rng& rng,
                                 PlacementScratch& scratch) const;

  /// The same, through this thread's scratch (serving, tests).
  std::vector<UserId> select(const PlacementContext& context,
                             util::Rng& rng) const;

 protected:
  /// Policy-specific selection into scratch.selection (empty on entry);
  /// see select() for the enforced contract.
  virtual void select_impl(const PlacementContext& context, util::Rng& rng,
                           PlacementScratch& scratch) const = 0;
};

enum class PolicyKind {
  kMaxAv,       ///< greedy availability set cover (paper Sec III-A)
  kMostActive,  ///< most interactive friends first (paper Sec III-B)
  kRandom,      ///< uniform choice (paper Sec III-C)
  kCoreGroup,   ///< delay-aware greedy (extension; paper Sec V-C idea)
  kHybrid,      ///< activity x coverage blend (extension)
};

std::string to_string(PolicyKind kind);

/// MaxAv greedy set-cover objective: which universe the replicas cover.
enum class MaxAvObjective {
  kAvailability,  ///< union of candidate online times (paper's default)
  kAoDTime,       ///< same universe, not seeded by the owner's schedule
  kAoDActivity,   ///< activity instants received on the user's profile
};

struct PolicyParams {
  MaxAvObjective objective = MaxAvObjective::kAvailability;
  /// ConRep tie-break: paper's literal phrasing picks, among connected
  /// candidates, the one whose schedule overlaps the covered set least;
  /// the default picks the one adding the most uncovered time. Both rules
  /// run MaxAv's one CELF greedy (placement/max_av.hpp).
  bool conrep_least_overlap = false;
  /// Hybrid policy: weight of the activity component in [0, 1].
  double hybrid_alpha = 0.5;
};

std::unique_ptr<ReplicaPolicy> make_policy(PolicyKind kind,
                                           const PolicyParams& params = {});

}  // namespace dosn::placement
