#include "placement/hybrid.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace dosn::placement {

HybridPolicy::HybridPolicy(double alpha) : alpha_(alpha) {
  DOSN_REQUIRE(alpha >= 0.0 && alpha <= 1.0,
               "HybridPolicy: alpha must be in [0, 1]");
}

std::string HybridPolicy::name() const {
  return util::format("Hybrid(%.2f)", alpha_);
}

void HybridPolicy::select_impl(const PlacementContext& context, util::Rng&,
                               PlacementScratch& scratch) const {
  DOSN_REQUIRE(context.trace != nullptr, "Hybrid needs the activity trace");
  std::vector<double>& activity = scratch.activity;
  activity.assign(context.candidates.size(), 0.0);
  double max_activity = 0.0;
  for (std::size_t i = 0; i < context.candidates.size(); ++i) {
    activity[i] = static_cast<double>(context.trace->interaction_count(
        context.user, context.candidates[i]));
    max_activity = std::max(max_activity, activity[i]);
  }
  if (max_activity > 0.0)
    for (auto& a : activity) a /= max_activity;

  interval::IntervalSet& covered = scratch.covered =
      context.schedule_of(context.user).set();
  scratch.start(context);
  while (scratch.selection.size() < context.max_replicas) {
    // Collect eligible candidates with their raw coverage gains first: the
    // coverage component is normalized over the current pool.
    auto& pool = scratch.pool;
    pool.clear();
    Seconds max_gain = 0;
    for (std::size_t i = 0; i < context.candidates.size(); ++i) {
      if (!scratch.eligible(i)) continue;
      const Seconds gain =
          context.candidate_schedule(i).set().subtract_measure(covered);
      pool.emplace_back(i, gain);
      max_gain = std::max(max_gain, gain);
    }
    if (pool.empty()) break;

    std::ptrdiff_t best = -1;
    double best_score = -1.0;
    for (const auto& [i, gain] : pool) {
      const double coverage =
          max_gain > 0 ? static_cast<double>(gain) /
                             static_cast<double>(max_gain)
                       : 0.0;
      const double score = alpha_ * activity[i] + (1.0 - alpha_) * coverage;
      if (score > best_score) {
        best_score = score;
        best = static_cast<std::ptrdiff_t>(i);
      }
    }
    // Stop once no candidate contributes on either axis.
    if (best < 0 || best_score <= 0.0) break;
    const std::size_t idx = static_cast<std::size_t>(best);
    scratch.take(context, idx);
    covered.unite_with(context.candidate_schedule(idx).set(),
                       &scratch.cover_buffer);
  }
}

}  // namespace dosn::placement
