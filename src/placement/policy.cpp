#include "placement/policy.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "placement/core_group.hpp"
#include "placement/hybrid.hpp"
#include "placement/max_av.hpp"
#include "placement/most_active.hpp"
#include "placement/random.hpp"
#include "util/check.hpp"

namespace dosn::placement {

namespace {

/// The placement contract select() enforces. Names the policy only in a
/// failure message, so a passing check allocates nothing.
void validate_selection(const PlacementContext& context,
                        std::span<const UserId> selection,
                        const ReplicaPolicy& policy) {
  DOSN_CHECK(selection.size() <= context.max_replicas, policy.name(),
             ": selected ", selection.size(),
             " replicas, exceeding the replication budget k = ",
             context.max_replicas, " for user ", context.user);
  // Linear scans per holder, with no sorted copy: the selection holds at
  // most k entries and candidate spans need not be sorted.
  for (std::size_t i = 0; i < selection.size(); ++i) {
    const UserId holder = selection[i];
    DOSN_CHECK(std::ranges::count(selection.first(i), holder) == 0,
               policy.name(), ": duplicate replica holder for user ",
               context.user);
    DOSN_CHECK(std::ranges::count(context.candidates, holder) > 0,
               policy.name(), ": replica holder ", holder,
               " is not a contact of user ", context.user);
  }
}

}  // namespace

std::span<const UserId> ReplicaPolicy::select(const PlacementContext& context,
                                              util::Rng& rng,
                                              PlacementScratch& scratch) const {
  scratch.selection.clear();
  scratch.selection.reserve(context.candidates.size());
  select_impl(context, rng, scratch);
  if (const std::uint64_t tests = scratch.frontier.take_tests(); tests > 0) {
    // The frontier's `intersects` calls (DESIGN.md §9), once per selection.
    static obs::Counter& conrep_tests =
        obs::Registry::global().counter("placement.conrep.tests");
    conrep_tests.add(tests);
  }
  validate_selection(context, scratch.selection, *this);
  return scratch.selection;
}

std::vector<UserId> ReplicaPolicy::select(const PlacementContext& context,
                                          util::Rng& rng) const {
  thread_local PlacementScratch scratch;  // select never re-enters itself
  const std::span<const UserId> selection = select(context, rng, scratch);
  return {selection.begin(), selection.end()};  // sized to the selection
}

std::string to_string(Connectivity c) {
  return c == Connectivity::kConRep ? "ConRep" : "UnconRep";
}

std::string to_string(StorageRegime regime) {
  switch (regime) {
    case StorageRegime::kReplicaGroup: return "ReplicaGroup";
    case StorageRegime::kSocialDht: return "SocialDht";
    case StorageRegime::kSuperPeer: return "SuperPeer";
  }
  DOSN_UNREACHABLE("unknown StorageRegime");
}

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kMaxAv: return "MaxAv";
    case PolicyKind::kMostActive: return "MostActive";
    case PolicyKind::kRandom: return "Random";
    case PolicyKind::kCoreGroup: return "CoreGroup";
    case PolicyKind::kHybrid: return "Hybrid";
  }
  return "?";
}

std::unique_ptr<ReplicaPolicy> make_policy(PolicyKind kind,
                                           const PolicyParams& params) {
  switch (kind) {
    case PolicyKind::kMaxAv:
      return std::make_unique<MaxAvPolicy>(params.objective,
                                           params.conrep_least_overlap);
    case PolicyKind::kMostActive:
      return std::make_unique<MostActivePolicy>();
    case PolicyKind::kRandom:
      return std::make_unique<RandomPolicy>();
    case PolicyKind::kCoreGroup:
      return std::make_unique<CoreGroupPolicy>();
    case PolicyKind::kHybrid:
      return std::make_unique<HybridPolicy>(params.hybrid_alpha);
  }
  throw ConfigError("make_policy: unknown policy kind");
}

}  // namespace dosn::placement
