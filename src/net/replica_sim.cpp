#include "net/replica_sim.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace dosn::net {

using interval::kDaySeconds;

namespace {

/// Per-run totals, flushed once per simulate_replica_group call so the
/// event loop itself carries no instrumentation cost.
inline constexpr std::int64_t kGroupSizeBounds[] = {1, 2, 4, 8, 16, 32, 64};

struct SimMetrics {
  obs::Counter& runs =
      obs::Registry::global().counter("net.replica_sim.runs");
  obs::Counter& events =
      obs::Registry::global().counter("net.replica_sim.events");
  obs::Counter& updates =
      obs::Registry::global().counter("net.replica_sim.updates");
  obs::Counter& deliveries =
      obs::Registry::global().counter("net.replica_sim.deliveries");
  obs::Histogram& group_size = obs::Registry::global().histogram(
      "net.replica_sim.group_size", kGroupSizeBounds);
};

SimMetrics& sim_metrics() {
  static SimMetrics m;
  return m;
}

// Equal-time ordering: relay transitions run first (half-open outage
// windows: the relay is down at the window start and back at its end,
// before any join at the same instant), then offline transitions
// (half-open intervals: a node is not online at its interval end), then
// online transitions, then update injections (an update at the instant a
// node comes online is received by it).
enum class EventKind : std::uint8_t {
  kRelayDown = 0,
  kRelayUp = 1,
  kOffline = 2,
  kOnline = 3,
  kUpdate = 4,
};

struct Event {
  SimTime time;
  EventKind kind;
  std::size_t node;
  std::size_t update = 0;  // for kUpdate
};

/// The firing order: (time, kind, node, update). Every event of one run
/// has a distinct key, so the order is total.
bool fires_before(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.node != b.node) return a.node < b.node;
  return a.update < b.update;
}

/// Merges the consecutive sorted runs of `events` that `bounds` delimits
/// (run r is [bounds[r], bounds[r + 1])) pairwise, bottom-up: O(E log
/// runs) instead of a full sort.
void merge_runs(std::vector<Event>& events,
                std::span<const std::size_t> bounds) {
  const std::size_t runs = bounds.size() - 1;
  const auto at = [&](std::size_t r) {
    return events.begin() +
           static_cast<std::ptrdiff_t>(bounds[std::min(r, runs)]);
  };
  for (std::size_t width = 1; width < runs; width *= 2)
    for (std::size_t r = 0; r + width < runs; r += 2 * width)
      std::inplace_merge(at(r), at(r + width), at(r + 2 * width),
                         fires_before);
}

/// Online group state as word bitsets over the updates: one known-set row
/// per node, the live group's shared set, and the relay's stored set.
class GroupState {
 public:
  GroupState(std::size_t nodes, std::size_t updates, bool persistent_store)
      : persistent_(persistent_store),
        words_((updates + 63) / 64),
        known_(nodes * words_, 0),
        group_(words_, 0),
        relay_(words_, 0),
        online_(nodes, 0) {}

  bool online(std::size_t i) const { return online_[i] != 0; }

  /// Node i joins the online group at time t; returns for each side the
  /// newly learned updates via `record`.
  template <typename Record>
  void join(std::size_t i, SimTime t, Record&& record) {
    DOSN_ASSERT(!online(i));
    if (online_count_ == 0 && !durable()) std::ranges::fill(group_, 0);
    std::uint64_t* known = row(i);
    for (std::size_t w = 0; w < words_; ++w) {
      // Updates the group learns from i reach every online member now.
      for_each_bit(known[w] & ~group_[w], w, [&](std::size_t u) {
        record_online(u, t, record);
      });
      for_each_bit(group_[w] & ~known[w], w,
                   [&](std::size_t u) { record(i, u, t); });
      group_[w] |= known[w];
      known[w] = group_[w];
    }
    online_[i] = 1;
    ++online_count_;
    sync_relay();
  }

  void leave(std::size_t i) {
    DOSN_ASSERT(online(i));
    std::ranges::copy(group_, row(i));
    online_[i] = 0;
    --online_count_;
  }

  /// Injects update u at node i at time t.
  template <typename Record>
  void inject(std::size_t i, std::size_t u, SimTime t, Record&& record) {
    record(i, u, t);
    const std::size_t w = u / 64;
    const std::uint64_t bit = std::uint64_t{1} << (u % 64);
    row(i)[w] |= bit;
    if (online(i)) {
      if ((group_[w] & bit) == 0) {
        group_[w] |= bit;
        record_online(u, t, record, i);
      }
      std::ranges::copy(group_, row(i));
      sync_relay();
    }
  }

  /// The relay becomes unreachable: the store freezes at its current
  /// content and the group falls back to ConRep semantics (a dissolved
  /// live group loses its shared state).
  void relay_down() {
    relay_ = group_;  // already mirrored while durable; freeze explicitly
    relay_up_ = false;
  }

  /// The relay returns: live group and relay re-merge bidirectionally;
  /// with nobody online only the relay's durable content survives.
  template <typename Record>
  void relay_up(SimTime t, Record&& record) {
    relay_up_ = true;
    if (online_count_ > 0) {
      for (std::size_t w = 0; w < words_; ++w) {
        for_each_bit(relay_[w] & ~group_[w], w, [&](std::size_t u) {
          record_online(u, t, record);
        });
        group_[w] |= relay_[w];
      }
      relay_ = group_;
    } else {
      group_ = relay_;
    }
  }

  std::size_t online_count() const { return online_count_; }

 private:
  std::uint64_t* row(std::size_t i) { return known_.data() + i * words_; }

  /// Calls f(u) for every set bit of `bits`, word w, in ascending order.
  template <typename F>
  static void for_each_bit(std::uint64_t bits, std::size_t w, F&& f) {
    for (; bits != 0; bits &= bits - 1)
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }

  /// Records update u at every online node except `skip`.
  template <typename Record>
  void record_online(std::size_t u, SimTime t, Record& record,
                     std::size_t skip = static_cast<std::size_t>(-1)) {
    for (std::size_t j = 0; j < online_.size(); ++j)
      if (online_[j] != 0 && j != skip) record(j, u, t);
  }

  /// Shared state survives an empty group only while the persistent store
  /// is reachable.
  bool durable() const { return persistent_ && relay_up_; }

  void sync_relay() {
    if (durable()) relay_ = group_;
  }

  bool persistent_;
  bool relay_up_ = true;
  std::size_t words_;
  std::vector<std::uint64_t> known_;  // node-major rows of words_ words
  std::vector<std::uint64_t> group_;
  std::vector<std::uint64_t> relay_;  // the persistent store's content
  std::vector<std::uint8_t> online_;
  std::size_t online_count_ = 0;
};

}  // namespace

ReplicaSimReport simulate_replica_group(std::span<const DaySchedule> nodes,
                                        std::span<const UpdateSpec> updates,
                                        const ReplicaSimConfig& config) {
  DOSN_REQUIRE(config.horizon_days > 0, "replica sim: horizon must be > 0");
  const SimTime horizon =
      static_cast<SimTime>(config.horizon_days) * kDaySeconds;
  for (const auto& u : updates) {
    DOSN_REQUIRE(u.origin < nodes.size(), "replica sim: bad update origin");
    DOSN_REQUIRE(u.time >= 0 && u.time < horizon,
                 "replica sim: update outside horizon");
  }

  // Effective fault plan: explicit NodeFailures become node outages of the
  // injected plan (crash-stop when no recovery time is given). Sessions
  // then come through the injector — a session inside an outage window is
  // dropped, one in progress at the failure instant is cut short, and a
  // transient failure's sessions resume after recovery (the node's held
  // state re-merges at its next join).
  FaultPlan plan = config.faults;
  for (const auto& f : config.failures)
    plan.node_outages.push_back({f.node, f.at, f.recover_at});
  for (const auto& o : plan.node_outages)
    DOSN_REQUIRE(o.node < nodes.size(), "replica sim: bad failure node");
  FaultInjector injector(plan);

  // The events are built as sorted runs and merged into firing order. Each
  // node's sessions are disjoint, non-empty and ascending, so its
  // online/offline alternation is already sorted (a session ending at the
  // instant the next begins orders its offline first, by kind).
  std::vector<Event> events;
  std::vector<std::size_t> bounds{0};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const auto& iv :
         injector.sessions(i, nodes[i], config.horizon_days)) {
      events.push_back({iv.start, EventKind::kOnline, i, 0});
      events.push_back({iv.end, EventKind::kOffline, i, 0});
    }
    bounds.push_back(events.size());
  }
  for (std::size_t u = 0; u < updates.size(); ++u)
    events.push_back(
        {updates[u].time, EventKind::kUpdate, updates[u].origin, u});
  std::sort(events.begin() + static_cast<std::ptrdiff_t>(bounds.back()),
            events.end(), fires_before);
  bounds.push_back(events.size());

  // Relay outage windows only exist under UnconRep (ConRep has no relay).
  // Overlapping windows are canonicalized so down/up events alternate.
  const bool persistent = config.connectivity == Connectivity::kUnconRep;
  if (persistent) {
    interval::IntervalSet windows;
    for (const auto& w : plan.relay_outages) {
      const SimTime start = std::min(w.start, horizon);
      const SimTime end = std::min(w.end, horizon);
      if (start < end) windows.add(start, end);
    }
    for (const auto& w : windows.pieces()) {
      events.push_back({w.start, EventKind::kRelayDown, 0, 0});
      events.push_back({w.end, EventKind::kRelayUp, 0, 0});
    }
    bounds.push_back(events.size());
  }
  merge_runs(events, bounds);

  ReplicaSimReport report;
  report.deliveries.resize(updates.size());
  for (std::size_t u = 0; u < updates.size(); ++u) {
    report.deliveries[u].creation = updates[u].time;
    report.deliveries[u].origin = updates[u].origin;
    report.deliveries[u].arrival.assign(nodes.size(), std::nullopt);
  }

  GroupState state(nodes.size(), updates.size(), persistent);
  auto record = [&](std::size_t node, std::size_t update, SimTime t) {
    auto& slot = report.deliveries[update].arrival[node];
    if (!slot) slot = t;
  };

  // One sweep in firing order: no handler schedules another event, so the
  // sorted list is the whole simulation.
  SimTime last_transition = 0;
  SimTime any_online_time = 0;
  for (const Event& ev : events) {
    DOSN_CHECK(ev.time >= last_transition,
               "replica sim: time ran backwards (event at ", ev.time,
               ", now = ", last_transition, ")");
    if (state.online_count() > 0)
      any_online_time += ev.time - last_transition;
    last_transition = ev.time;
    switch (ev.kind) {
      case EventKind::kRelayDown: state.relay_down(); break;
      case EventKind::kRelayUp: state.relay_up(ev.time, record); break;
      case EventKind::kOffline: state.leave(ev.node); break;
      case EventKind::kOnline: state.join(ev.node, ev.time, record); break;
      case EventKind::kUpdate:
        state.inject(ev.node, ev.update, ev.time, record);
        break;
    }
  }
  if (state.online_count() > 0) any_online_time += horizon - last_transition;
  report.events = events.size();
  report.empirical_availability =
      static_cast<double>(any_online_time) / static_cast<double>(horizon);

  // Delay statistics over non-origin nodes with non-empty schedules.
  util::RunningStats delays;
  std::uint64_t delivered = 0;
  for (const auto& d : report.deliveries) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i == d.origin || nodes[i].empty()) continue;
      if (!d.arrival[i]) {
        report.all_delivered = false;
        continue;
      }
      ++delivered;
      const Seconds delay = *d.arrival[i] - d.creation;
      report.max_delay = std::max(report.max_delay, delay);
      delays.add(static_cast<double>(delay));
    }
  }
  report.mean_delay = delays.mean();

  SimMetrics& m = sim_metrics();
  m.runs.add(1);
  m.events.add(report.events);
  m.updates.add(updates.size());
  m.deliveries.add(delivered);
  m.group_size.record(static_cast<std::int64_t>(nodes.size()));
  injector.flush_stats();
  return report;
}

std::optional<SimTime> first_non_origin_arrival(
    const UpdateDelivery& delivery) {
  std::optional<SimTime> earliest;
  for (std::size_t node = 0; node < delivery.arrival.size(); ++node) {
    if (node == delivery.origin) continue;
    const auto& at = delivery.arrival[node];
    if (at && (!earliest || *at < *earliest)) earliest = *at;
  }
  return earliest;
}

std::vector<UpdateSpec> updates_within_schedules(
    std::span<const DaySchedule> nodes, std::size_t count, int horizon_days,
    util::Rng& rng) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (!nodes[i].empty()) eligible.push_back(i);
  DOSN_REQUIRE(!eligible.empty(),
               "updates_within_schedules: no node is ever online");

  std::vector<UpdateSpec> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t origin = eligible[k % eligible.size()];
    const auto& sched = nodes[origin];
    const auto day = static_cast<SimTime>(
        rng.below(static_cast<std::uint64_t>(horizon_days)));
    // Uniform second within the node's daily online time.
    auto offset = static_cast<Seconds>(rng.below(
        static_cast<std::uint64_t>(sched.online_seconds())));
    Seconds tod = 0;
    for (const auto& iv : sched.set().pieces()) {
      if (offset < iv.length()) {
        tod = iv.start + offset;
        break;
      }
      offset -= iv.length();
    }
    out.push_back({day * kDaySeconds + tod, origin});
  }
  std::sort(out.begin(), out.end(),
            [](const UpdateSpec& a, const UpdateSpec& b) {
              return a.time < b.time;
            });
  return out;
}

}  // namespace dosn::net
