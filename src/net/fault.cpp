#include "net/fault.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace dosn::net {

using interval::Interval;
using interval::IntervalSet;
using interval::kDaySeconds;

namespace {

// Stream-family tags (same role as the sweep tags in sim/study): one family
// per fault class, so a node's message faults, churn faults, and DHT crash
// decision come from unrelated streams of the same plan seed.
inline constexpr std::uint64_t kMsgTag = 0xfa0c1;
inline constexpr std::uint64_t kChurnTag = 0xfa0c2;
inline constexpr std::uint64_t kDhtTag = 0xfa0c3;
inline constexpr std::uint64_t kRegionTag = 0xfa0c4;
inline constexpr std::uint64_t kBurstTag = 0xfa0c5;

struct FaultObs {
  obs::Counter& messages_dropped =
      obs::Registry::global().counter("net.fault.messages_dropped");
  obs::Counter& jitter_applied =
      obs::Registry::global().counter("net.fault.jitter_applied");
  obs::Counter& sessions_skipped =
      obs::Registry::global().counter("net.fault.sessions_skipped");
  obs::Counter& sessions_truncated =
      obs::Registry::global().counter("net.fault.sessions_truncated");
  obs::Counter& outage_cuts =
      obs::Registry::global().counter("net.fault.outage_cuts");
  obs::Counter& relay_blocked =
      obs::Registry::global().counter("net.fault.relay_blocked");
  obs::Counter& scenario_windows =
      obs::Registry::global().counter("net.fault.scenario_windows");
  obs::Counter& session_pieces =
      obs::Registry::global().counter("net.fault.session_pieces");
};

FaultObs& fault_obs() {
  static FaultObs o;
  return o;
}

void require_probability(double p, const char* what) {
  DOSN_REQUIRE(p >= 0.0 && p <= 1.0, std::string("fault plan: ") + what +
                                         " must be a probability in [0, 1]");
}

}  // namespace

bool FaultPlan::zero() const {
  return message_drop <= 0.0 && latency_jitter_max <= 0 &&
         session_no_show <= 0.0 &&
         (session_truncate <= 0.0 || truncate_max_fraction <= 0.0) &&
         node_outages.empty() && relay_outages.empty() && dht_crash <= 0.0 &&
         scenario.zero();
}

void validate(const FaultPlan& plan) {
  require_probability(plan.message_drop, "message_drop");
  require_probability(plan.session_no_show, "session_no_show");
  require_probability(plan.session_truncate, "session_truncate");
  require_probability(plan.truncate_max_fraction, "truncate_max_fraction");
  require_probability(plan.dht_crash, "dht_crash");
  DOSN_REQUIRE(plan.latency_jitter_max >= 0,
               "fault plan: negative latency_jitter_max");
  for (const auto& o : plan.node_outages) {
    DOSN_REQUIRE(o.at >= 0, "fault plan: node outage before time 0");
    DOSN_REQUIRE(!o.recover_at || *o.recover_at >= o.at,
                 "fault plan: node outage recovers before it starts");
  }
  for (const auto& w : plan.relay_outages)
    DOSN_REQUIRE(w.start >= 0 && w.start <= w.end,
                 "fault plan: malformed relay outage window");
  validate(plan.scenario);
}

FaultPlan scaled(const FaultPlan& base, double f) {
  validate(base);
  DOSN_REQUIRE(f >= 0.0 && f <= 1.0, "fault plan: intensity outside [0, 1]");
  FaultPlan out;
  out.seed = base.seed;
  // Scenario entries are preserved (inactive at f == 0) so entry indices —
  // and with them the per-(entry, node) streams — stay aligned across
  // intensities.
  out.scenario = scaled(base.scenario, f);
  if (f <= 0.0) return out;  // the zero plan, seed preserved

  out.message_drop = base.message_drop * f;
  out.latency_jitter_max =
      static_cast<Seconds>(static_cast<double>(base.latency_jitter_max) * f);
  out.session_no_show = base.session_no_show * f;
  out.session_truncate = base.session_truncate * f;
  out.truncate_max_fraction = base.truncate_max_fraction * f;
  out.dht_crash = base.dht_crash * f;

  // Outage windows keep their start and shrink proportionally; zero-length
  // results vanish. Crash-stops (no recovery) are unbounded, so any f > 0
  // keeps them whole — still nested.
  for (const auto& o : base.node_outages) {
    if (!o.recover_at) {
      out.node_outages.push_back(o);
      continue;
    }
    const auto len = static_cast<Seconds>(
        static_cast<double>(*o.recover_at - o.at) * f);
    if (len > 0) out.node_outages.push_back({o.node, o.at, o.at + len});
  }
  for (const auto& w : base.relay_outages) {
    const auto len =
        static_cast<Seconds>(static_cast<double>(w.end - w.start) * f);
    if (len > 0) out.relay_outages.push_back({w.start, w.start + len});
  }
  return out;
}

void flush_fault_stats(const FaultStats& stats) {
  FaultObs& o = fault_obs();
  o.messages_dropped.add(stats.messages_dropped);
  o.jitter_applied.add(stats.jitter_applied);
  o.sessions_skipped.add(stats.sessions_skipped);
  o.sessions_truncated.add(stats.sessions_truncated);
  o.outage_cuts.add(stats.outage_cuts);
  o.relay_blocked.add(stats.relay_blocked);
  o.scenario_windows.add(stats.scenario_windows);
  o.session_pieces.add(stats.session_pieces);
}

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan) {
  validate(plan_);
}

util::Rng& FaultInjector::message_stream(std::size_t sender) {
  auto it = message_streams_.find(sender);
  if (it == message_streams_.end())
    it = message_streams_
             .emplace(sender, util::Rng(util::mix64(plan_.seed, kMsgTag,
                                                    sender)))
             .first;
  return it->second;
}

bool FaultInjector::drop_message(std::size_t sender) {
  if (plan_.message_drop <= 0.0) return false;
  const bool drop = message_stream(sender).uniform() < plan_.message_drop;
  if (drop) ++stats_.messages_dropped;
  return drop;
}

Seconds FaultInjector::latency_jitter(std::size_t sender) {
  if (plan_.latency_jitter_max <= 0) return 0;
  const double u = message_stream(sender).uniform();
  const auto jitter = std::min<Seconds>(
      static_cast<Seconds>(
          u * static_cast<double>(plan_.latency_jitter_max + 1)),
      plan_.latency_jitter_max);
  if (jitter > 0) ++stats_.jitter_applied;
  return jitter;
}

std::optional<Interval> FaultInjector::churn_piece(util::Rng& stream,
                                                   Interval piece) {
  // Fixed three draws per piece regardless of outcome: the stream position
  // depends only on (node, day, piece index), never on earlier decisions,
  // so scaled plans compare the *same* draws against scaled thresholds and
  // the injected fault sets are nested across intensities.
  const double u_skip = stream.uniform();
  const double u_gate = stream.uniform();
  const double u_amount = stream.uniform();
  if (u_skip < plan_.session_no_show) {
    ++stats_.sessions_skipped;
    return std::nullopt;
  }
  if (u_gate < plan_.session_truncate) {
    const auto cut = static_cast<Seconds>(u_amount *
                                          plan_.truncate_max_fraction *
                                          static_cast<double>(piece.length()));
    if (cut > 0) {
      ++stats_.sessions_truncated;
      piece.end -= cut;
    }
  }
  return piece;
}

void FaultInjector::append_scenario_windows(std::size_t node, SimTime horizon,
                                            std::vector<Interval>& windows) {
  const ScenarioSpec& sc = plan_.scenario;
  for (std::size_t e = 0; e < sc.regional_outages.size(); ++e) {
    const auto& r = sc.regional_outages[e];
    if (!r.active() || node % r.regions != r.region) continue;
    // One participation draw per (entry, node); scaled specs compare the
    // same draw against a scaled threshold, so realizations nest.
    util::Rng stream(util::mix64(util::mix64(plan_.seed, kRegionTag, e),
                                 node));
    if (stream.uniform() >= r.participation) continue;
    const SimTime end = std::min<SimTime>(r.end, horizon);
    if (r.start < end) {
      windows.push_back({r.start, end});
      ++stats_.scenario_windows;
    }
  }
  for (std::size_t e = 0; e < sc.churn_bursts.size(); ++e) {
    const auto& b = sc.churn_bursts[e];
    if (!b.active()) continue;
    util::Rng stream(util::mix64(util::mix64(plan_.seed, kBurstTag, e),
                                 node));
    if (stream.uniform() >= b.participation) continue;
    // One draw per day of the window, positioned by the day's ordinal
    // from the (scale-invariant) window start: the scaled window's days
    // are a prefix of the base window's days comparing identical draws.
    const SimTime first_day = b.start / kDaySeconds;
    const SimTime last_day = (b.end - 1) / kDaySeconds;
    for (SimTime day = first_day; day <= last_day; ++day) {
      const double u = stream.uniform();
      if (u >= b.no_show) continue;
      const SimTime start =
          std::max<SimTime>(b.start, day * kDaySeconds);
      const SimTime end =
          std::min<SimTime>({b.end, (day + 1) * kDaySeconds, horizon});
      if (start < end) {
        windows.push_back({start, end});
        ++stats_.scenario_windows;
      }
    }
  }
}

std::vector<Interval> FaultInjector::sessions(std::size_t node,
                                              const DaySchedule& schedule,
                                              int horizon_days) {
  std::vector<Interval> out;
  append_sessions(node, schedule, horizon_days, out);
  return out;
}

void FaultInjector::append_sessions(std::size_t node,
                                    const DaySchedule& schedule,
                                    int horizon_days,
                                    std::vector<Interval>& out) {
  DOSN_REQUIRE(horizon_days > 0, "fault: horizon must be > 0");
  const SimTime horizon = static_cast<SimTime>(horizon_days) * kDaySeconds;

  // This node's downtime windows, canonicalized (sorted + merged) so the
  // subtraction below can sweep them in one forward pass.
  std::vector<Interval> windows;
  for (const auto& o : plan_.node_outages) {
    if (o.node != node) continue;
    const SimTime end = o.recover_at ? std::min(*o.recover_at, horizon)
                                     : horizon;
    if (o.at < end) windows.push_back({o.at, end});
  }
  append_scenario_windows(node, horizon, windows);
  const IntervalSet down = windows.empty() ? IntervalSet{}
                                           : IntervalSet(std::move(windows));
  const auto down_pieces = down.pieces();

  const bool churn =
      plan_.session_no_show > 0.0 || plan_.session_truncate > 0.0;
  util::Rng stream(util::mix64(plan_.seed, kChurnTag, node));

  const std::size_t first = out.size();
  // First window that may still cut a piece: piece starts only grow
  // (day-major order), so a window ending at or before one piece's start
  // ends before every later piece's start too.
  auto cursor = down_pieces.begin();
  for (int day = 0; day < horizon_days; ++day) {
    const SimTime base = static_cast<SimTime>(day) * kDaySeconds;
    for (const auto& iv : schedule.set().pieces()) {
      Interval piece{base + iv.start, base + iv.end};
      if (churn) {
        const auto kept = churn_piece(stream, piece);
        if (!kept) continue;
        piece = *kept;
      }
      // Subtract the outage windows piecewise — deliberately NOT through
      // IntervalSet::add, which would merge midnight-adjacent pieces and
      // change the event structure the zero plan must preserve.
      while (cursor != down_pieces.end() && cursor->end <= piece.start)
        ++cursor;
      Seconds s = piece.start;
      for (auto w = cursor; w != down_pieces.end(); ++w) {
        if (w->start >= piece.end) break;
        ++stats_.outage_cuts;
        if (w->start > s) out.push_back({s, w->start});
        s = std::max(s, w->end);
        if (s >= piece.end) break;
      }
      if (s < piece.end) out.push_back({s, piece.end});
    }
  }
  stats_.session_pieces += out.size() - first;
}

DaySchedule FaultInjector::degrade_day(std::size_t node,
                                       const DaySchedule& schedule) {
  const bool churn =
      plan_.session_no_show > 0.0 || plan_.session_truncate > 0.0;
  IntervalSet kept;
  if (churn) {
    // Same per-node stream as sessions(): one day's worth of draws.
    util::Rng stream(util::mix64(plan_.seed, kChurnTag, node));
    for (const auto& iv : schedule.set().pieces())
      if (const auto k = churn_piece(stream, iv)) kept.add(*k);
  } else {
    kept = schedule.set();
  }

  std::vector<Interval> windows;
  for (const auto& o : plan_.node_outages) {
    if (o.node != node) continue;
    // A crash-stop blankets the whole daily cycle.
    const SimTime end = o.recover_at ? *o.recover_at : o.at + kDaySeconds;
    if (o.at < end) windows.push_back({o.at, end});
  }
  // Scenario windows projected onto the daily cycle — the same per-node
  // realization the event horizon sees (multi-day windows blanket the
  // cycle, matching the crash-stop approximation above).
  {
    SimTime scenario_horizon = 0;
    for (const auto& r : plan_.scenario.regional_outages)
      scenario_horizon = std::max<SimTime>(scenario_horizon, r.end);
    for (const auto& b : plan_.scenario.churn_bursts)
      scenario_horizon = std::max<SimTime>(scenario_horizon, b.end);
    if (scenario_horizon > 0)
      append_scenario_windows(node, scenario_horizon, windows);
  }
  if (!windows.empty()) {
    ++stats_.outage_cuts;
    kept = kept.subtract(DaySchedule::project(windows).set());
  }
  return DaySchedule(kept);
}

bool FaultInjector::relay_down(SimTime t) const {
  for (const auto& w : plan_.relay_outages)
    if (w.start <= t && t < w.end) return true;
  return false;
}

bool FaultInjector::dht_crashed(std::uint64_t node_id) const {
  if (plan_.dht_crash <= 0.0) return false;
  util::Rng stream(util::mix64(plan_.seed, kDhtTag, node_id));
  return stream.uniform() < plan_.dht_crash;
}

void FaultInjector::flush_stats() {
  flush_fault_stats(stats_);
  stats_ = FaultStats{};
}

}  // namespace dosn::net
