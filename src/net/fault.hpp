// Deterministic fault injection for the network stack.
//
// The protocol simulators (gossip, replica_sim, profile_sync, dht) were
// built under ideal conditions: every message arrives, every node follows
// its DaySchedule to the second, the relay never blinks. Schiöberg et al.
// ("Revisiting Content Availability in Distributed Online Social
// Networks") show that availability estimates collapse under realistic
// churn and flakiness, so this layer injects the deviations those systems
// actually see — and the hardened protocols are measured against them:
//
//   * message faults   — per-message drop probability and latency jitter
//     on the gossip wire;
//   * churn faults     — sessions a replica skips entirely (no-show) or
//     cuts short (truncation), deviating from its DaySchedule;
//   * node outages     — transient failures with optional recovery
//     (generalizing crash-stop NodeFailure);
//   * relay outages    — windows during which the UnconRep store is
//     unreachable;
//   * DHT crashes      — ring nodes dead without a graceful leave.
//
// Determinism contract (same discipline as the study engine): every fault
// decision is drawn from a per-entity RNG stream derived with util::mix64
// from FaultPlan::seed — never from the protocol's own Rng — so (a) a
// fixed plan yields bit-identical runs regardless of thread count or
// observability, and (b) the zero plan consumes nothing the unfaulted
// code path would not, reproducing today's outputs exactly. Decisions are
// additionally *nested*: scaled(plan, f1) injects a subset of the faults
// of scaled(plan, f2) for f1 <= f2 (the per-entity draws are compared
// against scaled probabilities), which is what makes degradation curves
// monotone rather than merely monotone in expectation.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "interval/day_schedule.hpp"
#include "net/event_queue.hpp"
#include "net/scenario.hpp"
#include "util/rng.hpp"

namespace dosn::net {

using interval::DaySchedule;
using interval::Seconds;

/// Transient failure window of one simulated node: down at `at`, back at
/// `recover_at` (never, when absent — a crash-stop).
struct NodeOutage {
  std::size_t node = 0;
  SimTime at = 0;
  std::optional<SimTime> recover_at;
};

/// Unavailability window [start, end) of shared infrastructure (the
/// UnconRep relay).
struct OutageWindow {
  SimTime start = 0;
  SimTime end = 0;
};

/// A complete fault scenario. The default-constructed plan is the zero
/// plan: nothing ever fires and every hardened protocol reproduces its
/// unfaulted outputs bit for bit.
struct FaultPlan {
  /// Base seed of the per-entity fault streams (independent of the
  /// protocol seeds; two plans differing only in seed inject different
  /// fault realizations of the same intensity).
  std::uint64_t seed = 0;

  // --- message layer (gossip wire) ---
  /// Probability that one transmission attempt is dropped.
  double message_drop = 0.0;
  /// Uniform extra one-way latency in [0, latency_jitter_max] seconds.
  Seconds latency_jitter_max = 0;

  // --- churn layer (DaySchedule deviations) ---
  /// Probability a daily session is skipped entirely.
  double session_no_show = 0.0;
  /// Probability a session ends early.
  double session_truncate = 0.0;
  /// A truncated session loses up to this fraction of its length.
  double truncate_max_fraction = 0.0;

  // --- infrastructure ---
  /// Transient node failures (applied by index into the simulated group).
  std::vector<NodeOutage> node_outages;
  /// Windows during which the UnconRep relay is unreachable.
  std::vector<OutageWindow> relay_outages;
  /// Probability a DHT node is crashed (decided per node id).
  double dht_crash = 0.0;

  // --- composite scenarios (net/scenario.hpp) ---
  /// Macro-events layered on top of the per-node fault classes: regional
  /// outages and churn bursts materialize as extra per-node outage
  /// windows inside sessions()/degrade_day(); flash crowds are consumed
  /// by the serving workload (serve/workload.hpp). Realizations come from
  /// per-(entry, node) streams of this plan's seed, so the zero scenario
  /// stays bit-identical and scaled() realizations nest.
  ScenarioSpec scenario;

  /// True when no fault can ever fire.
  bool zero() const;
};

/// Throws ConfigError when probabilities/windows are out of range.
void validate(const FaultPlan& plan);

/// Scales a plan's intensity by `f` in [0, 1]: probabilities and the
/// truncation fraction multiply by f (clamped to 1), jitter and outage
/// window lengths shrink proportionally, and at f == 0 every fault
/// vanishes. The seed is preserved, so scaled plans are nested.
FaultPlan scaled(const FaultPlan& base, double f);

/// Per-run fault totals, accumulated by the injector and flushed once per
/// simulation into the obs registry (`net.fault.*`) by the protocol that
/// owns the run — the hot paths carry no instrumentation cost.
struct FaultStats {
  std::uint64_t messages_dropped = 0;
  std::uint64_t jitter_applied = 0;   ///< attempts delayed by jitter > 0
  std::uint64_t sessions_skipped = 0;
  std::uint64_t sessions_truncated = 0;
  std::uint64_t outage_cuts = 0;      ///< session pieces cut by an outage
  std::uint64_t relay_blocked = 0;    ///< operations refused: relay down
  std::uint64_t scenario_windows = 0; ///< realized scenario outage windows
  std::uint64_t session_pieces = 0;   ///< session pieces materialized

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// Publishes per-run totals to the obs registry (one add per field).
void flush_fault_stats(const FaultStats& stats);

/// Draws fault decisions for one simulation run. Message decisions are
/// consumed in send order from one stream per sending entity; schedule
/// materialization is a pure function of (plan seed, node, day, session
/// index). The injector never touches a protocol Rng.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  /// One transmission attempt by `sender`: true = the attempt is lost.
  bool drop_message(std::size_t sender);

  /// Extra one-way latency of one attempt by `sender` (0 when jitter is
  /// disabled). Always consumes exactly one draw per call, keeping the
  /// per-sender streams aligned across plan intensities.
  Seconds latency_jitter(std::size_t sender);

  /// Materializes `node`'s absolute online sessions over the horizon with
  /// churn faults and the node's outage windows applied. Preserves the
  /// unfaulted per-(day, piece) event structure: for the zero plan the
  /// result is exactly { day * kDaySeconds + piece } in day-major order
  /// (no merging of midnight-adjacent pieces), so event-driven simulators
  /// built on it reproduce their unfaulted event sequences bit for bit.
  std::vector<interval::Interval> sessions(std::size_t node,
                                           const DaySchedule& schedule,
                                           int horizon_days);

  /// sessions(), appended to `out` after its existing content: the pieces
  /// form one sorted run (starts ascending, pieces disjoint), so callers
  /// that unite several nodes can merge the runs instead of sorting.
  void append_sessions(std::size_t node, const DaySchedule& schedule,
                       int horizon_days,
                       std::vector<interval::Interval>& out);

  /// Daily-projection counterpart for the analytic engine: applies one
  /// day's churn draws (the same per-node stream discipline) plus the
  /// node's outage windows projected onto the day. Feeds the resilience
  /// sweep, where placements chosen on ideal schedules are re-evaluated
  /// on degraded ones.
  DaySchedule degrade_day(std::size_t node, const DaySchedule& schedule);

  /// Is the relay inside an outage window at time t?
  bool relay_down(SimTime t) const;

  /// Is this DHT node crashed under the plan? Pure function of
  /// (plan seed, node id).
  bool dht_crashed(std::uint64_t node_id) const;

  const FaultStats& stats() const { return stats_; }
  /// Publishes the accumulated totals to obs and zeroes them.
  void flush_stats();

 private:
  util::Rng& message_stream(std::size_t sender);

  /// Applies no-show/truncation draws to one session piece; returns the
  /// kept part (empty when skipped). Draws exactly three uniforms.
  std::optional<interval::Interval> churn_piece(util::Rng& stream,
                                                interval::Interval piece);

  /// Appends `node`'s realized scenario outage windows (regional outages
  /// the node participates in, churn-burst days it drops) clipped to
  /// [0, horizon). Each scenario entry draws from its own
  /// per-(entry, node) stream, so realizations are independent of entry
  /// activity and nested across scaled() intensities.
  void append_scenario_windows(std::size_t node, SimTime horizon,
                               std::vector<interval::Interval>& windows);

  FaultPlan plan_;
  FaultStats stats_;
  // Per-sender message streams, created on first use. Keyed access only —
  // never iterated — so container order cannot leak into any result.
  std::map<std::size_t, util::Rng> message_streams_;
};

}  // namespace dosn::net
