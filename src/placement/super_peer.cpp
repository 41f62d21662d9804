#include "placement/super_peer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dosn::placement {

using interval::Interval;
using interval::IntervalSet;
using interval::Seconds;

void validate(const SuperPeerConfig& config) {
  // Positive-form checks: NaN fails every comparison, so it is rejected.
  if (!(config.volunteer_threshold >= 0.0 && config.volunteer_threshold <= 1.0))
    throw ConfigError("super_peer: volunteer_threshold must be in [0, 1]");
  if (!(config.target_availability >= 0.0 && config.target_availability <= 1.0))
    throw ConfigError("super_peer: target_availability must be in [0, 1]");
  if (config.max_storekeepers > 64)
    throw ConfigError("super_peer: max_storekeepers must be <= 64");
}

SuperPeerDirectory::SuperPeerDirectory(
    std::span<const interval::DaySchedule> schedules,
    const SuperPeerConfig& config)
    : config_(config), schedules_(schedules) {
  validate(config);
  // Volunteers in id order: coverage() >= threshold. Integer-exact test
  // (threshold scaled to seconds, rounded up) so the set cannot depend
  // on floating-point associativity anywhere.
  const auto threshold_secs = static_cast<Seconds>(
      std::ceil(config_.volunteer_threshold *
                static_cast<double>(interval::kDaySeconds)));
  for (std::size_t u = 0; u < schedules.size(); ++u)
    if (schedules[u].online_seconds() >= threshold_secs)
      volunteers_.push_back(static_cast<UserId>(u));
}

bool SuperPeerDirectory::is_volunteer(UserId user) const {
  return std::binary_search(volunteers_.begin(), volunteers_.end(), user);
}

std::vector<UserId> SuperPeerDirectory::assign_storekeepers(
    UserId user, std::span<const UserId> group, std::uint64_t seed,
    const std::function<bool(UserId)>& crashed) const {
  std::vector<UserId> picks;
  if (volunteers_.empty() || config_.max_storekeepers == 0) return picks;

  const auto target_secs = static_cast<Seconds>(
      std::ceil(config_.target_availability *
                static_cast<double>(interval::kDaySeconds)));
  IntervalSet cover;
  std::vector<Interval> scratch;
  for (const UserId m : group) {
    DOSN_CHECK(m < schedules_.size(), "super_peer: group member out of range");
    cover.unite_with(schedules_[m].set(), &scratch);
  }
  // The tier only steps in for under-covered groups; a group already at
  // the target consumes no draws (so the walk for a lower target is a
  // prefix of the walk for a higher one — see the header).
  if (cover.measure() >= target_secs) return picks;

  util::Rng stream(util::mix64(util::mix64(seed, kStorekeeperTag), user));
  // The attempt bound makes termination unconditional even when every
  // volunteer is crashed or already a group member.
  std::size_t attempts = config_.max_storekeepers * 8 + 16;
  while (picks.size() < config_.max_storekeepers && attempts-- > 0) {
    const UserId v = volunteers_[stream.below(volunteers_.size())];
    if (v == user) continue;
    if (std::find(group.begin(), group.end(), v) != group.end()) continue;
    if (std::find(picks.begin(), picks.end(), v) != picks.end()) continue;
    if (crashed && crashed(v)) continue;
    picks.push_back(v);
    cover.unite_with(schedules_[v].set(), &scratch);
    if (cover.measure() >= target_secs) break;
  }
  return picks;
}

namespace {

/// Line-parsing scaffolding, net/scenario.cpp's grammar discipline.
struct Fields {
  std::size_t line_no;
  std::vector<std::pair<std::string_view, std::string_view>> kv;
  std::vector<bool> used;

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("super_peer line " + std::to_string(line_no) + ": " +
                     why);
  }

  std::optional<std::string_view> find(std::string_view key) {
    for (std::size_t i = 0; i < kv.size(); ++i)
      if (kv[i].first == key) {
        used[i] = true;
        return kv[i].second;
      }
    return std::nullopt;
  }

  void finish() const {
    for (std::size_t i = 0; i < kv.size(); ++i)
      if (!used[i]) fail("unknown field '" + std::string(kv[i].first) + "'");
  }
};

}  // namespace

SuperPeerConfig parse_super_peer(std::string_view text) {
  SuperPeerConfig config;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = util::trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line.front() == '#') continue;

    const auto tokens = util::split_ws(line);
    Fields f{line_no, {}, {}};
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::size_t eq = tokens[i].find('=');
      if (eq == std::string_view::npos || eq == 0)
        f.fail("expected key=value, got '" + std::string(tokens[i]) + "'");
      f.kv.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
    }
    f.used.assign(f.kv.size(), false);

    if (tokens[0] != "super_peer")
      f.fail("unknown record '" + std::string(tokens[0]) + "'");
    // Every field is optional; later lines override earlier ones.
    if (const auto v = f.find("volunteer_threshold"))
      config.volunteer_threshold = util::parse_f64(*v);
    if (const auto v = f.find("target_availability"))
      config.target_availability = util::parse_f64(*v);
    if (const auto v = f.find("max_storekeepers"))
      config.max_storekeepers = static_cast<std::size_t>(util::parse_i64(*v));
    f.finish();
  }
  validate(config);
  return config;
}

std::string to_text(const SuperPeerConfig& config) {
  return util::format(
      "super_peer volunteer_threshold=%s target_availability=%s "
      "max_storekeepers=%zu\n",
      util::format_double(config.volunteer_threshold).c_str(),
      util::format_double(config.target_availability).c_str(),
      config.max_storekeepers);
}

}  // namespace dosn::placement
