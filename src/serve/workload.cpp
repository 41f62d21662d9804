#include "serve/workload.hpp"

#include <algorithm>
#include <iterator>

#include "interval/day_schedule.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace dosn::serve {

namespace {
/// Stream tag separating the workload stream family from every other
/// mix64-derived stream in the system (placement, models, faults).
inline constexpr std::uint64_t kWorkloadTag = 0x53455256'574b4c44ULL;  // "SERVWKLD"
/// Stream tag of the flash-crowd extra-request streams (keyed by the
/// *fault plan* seed: the crowd is part of the scenario, not the base
/// workload, so two plans differing only in seed superpose different
/// crowd realizations on the same base streams).
inline constexpr std::uint64_t kFlashTag = 0x53455256'464c5348ULL;  // "SERVFLSH"

/// Appends Poisson arrivals at `rate` per second in (start, end) drawn
/// from `rng` — the shared draw discipline of the base and flash streams:
/// per request one inter-arrival gap, then a kind and a target draw
/// whatever the kind. Double accumulation is deterministic (same draws,
/// same order, portable Rng::exponential).
void append_arrivals(const WorkloadConfig& config, util::Rng& rng,
                     double rate, double start, double end,
                     std::size_t degree, std::vector<Request>& out) {
  const std::uint64_t target_support =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(degree));
  for (double t = start + rng.exponential(rate); t < end;
       t += rng.exponential(rate)) {
    Request r;
    r.time = static_cast<net::SimTime>(t);
    const double mix = rng.uniform();
    r.kind = mix < config.read_fraction ? RequestKind::kProfileRead
             : mix < config.read_fraction + config.feed_fraction
                 ? RequestKind::kFeedAssembly
                 : RequestKind::kPostWrite;
    r.target_index = static_cast<std::uint32_t>(rng.below(target_support));
    out.push_back(r);
  }
}
}  // namespace

std::string_view to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kProfileRead: return "profile_read";
    case RequestKind::kFeedAssembly: return "feed_assembly";
    case RequestKind::kPostWrite: return "post_write";
  }
  DOSN_UNREACHABLE("unknown RequestKind");
}

void validate(const WorkloadConfig& config) {
  if (config.requests_per_user_per_day <= 0.0)
    throw ConfigError("workload: requests_per_user_per_day must be > 0");
  if (config.read_fraction < 0.0 || config.feed_fraction < 0.0 ||
      config.read_fraction + config.feed_fraction > 1.0)
    throw ConfigError("workload: request mix fractions out of range");
  if (config.horizon_days <= 0)
    throw ConfigError("workload: horizon_days must be > 0");
}

std::vector<Request> user_requests(const WorkloadConfig& config,
                                   std::uint64_t seed, graph::UserId user,
                                   std::size_t degree) {
  validate(config);
  util::Rng rng(util::mix64(util::mix64(seed, kWorkloadTag), user));

  const double horizon_s = static_cast<double>(config.horizon_days) *
                           static_cast<double>(interval::kDaySeconds);
  const double rate_per_s = config.requests_per_user_per_day /
                            static_cast<double>(interval::kDaySeconds);
  std::vector<Request> out;
  append_arrivals(config, rng, rate_per_s, 0.0, horizon_s, degree, out);
  return out;
}

std::vector<Request> flash_requests(const WorkloadConfig& config,
                                    const net::ScenarioSpec& scenario,
                                    std::uint64_t plan_seed,
                                    graph::UserId user, std::size_t degree) {
  validate(config);
  validate(scenario);
  const double horizon_s = static_cast<double>(config.horizon_days) *
                           static_cast<double>(interval::kDaySeconds);
  const double base_rate = config.requests_per_user_per_day /
                           static_cast<double>(interval::kDaySeconds);

  std::vector<Request> out;
  for (std::size_t e = 0; e < scenario.flash_crowds.size(); ++e) {
    const auto& crowd = scenario.flash_crowds[e];
    if (!crowd.active()) continue;
    const double rate = base_rate * (crowd.load_multiplier - 1.0);
    const double end =
        std::min(static_cast<double>(crowd.end), horizon_s);
    util::Rng rng(
        util::mix64(util::mix64(plan_seed, kFlashTag, e), user));
    // Gaps accumulate from the (scale-invariant) window start, so a
    // scaled (shorter) window keeps exactly the prefix of this stream's
    // arrivals — the nesting guarantee.
    append_arrivals(config, rng, rate, static_cast<double>(crowd.start), end,
                    degree, out);
  }
  if (scenario.flash_crowds.size() > 1)
    std::stable_sort(out.begin(), out.end(),
                     [](const Request& a, const Request& b) {
                       return a.time < b.time;
                     });
  return out;
}

std::vector<Request> merge_requests(std::vector<Request> base,
                                    std::vector<Request> extra) {
  if (extra.empty()) return base;
  std::vector<Request> out;
  out.reserve(base.size() + extra.size());
  std::merge(base.begin(), base.end(), extra.begin(), extra.end(),
             std::back_inserter(out),
             [](const Request& a, const Request& b) {
               return a.time < b.time;
             });
  return out;
}

}  // namespace dosn::serve
