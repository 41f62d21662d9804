// The traced replay: the engine's per-user loop re-driven from the
// benchmark through each layer's public functions, with a span around
// every call into a layer.
//
// No code under src/ is instrumented. The replay calls the same public
// functions the engine calls, in the same order and on the same RNG
// streams, so its output checksum must equal the engine's — which proves
// the spans timed the engine's work and not some other work. The spans of
// the layers below are disjoint, so their sum plus the replay's own loop
// (reported as unattributed) is the replay's wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Layers the replay times, each a set of disjoint spans.
enum Layer : std::size_t {
  kSelect,      ///< placement::ReplicaPolicy::select
  kEvaluate,    ///< sim::evaluate_user_prefixes (scratch overload)
  kDelay,       ///< metrics::DelayPrefixEvaluator reset / push / result
  kReduce,      ///< sim::detail::CohortAccum + average_runs
  kWorkload,    ///< serve::user_requests
  kSessions,    ///< net::FaultInjector::sessions
  kUnion,       ///< interval::IntervalSet::add over one member's sessions
  kReplicaSim,  ///< net::simulate_replica_group
  kLayerCount,
};

/// Metric name of each layer's summed span time, indexed by Layer.
inline constexpr std::array<std::string_view, kLayerCount> kLayerMetric{
    "placement.select_s", "sim.evaluate_s",       "metrics.delay_s",
    "sim.reduce_s",       "serve.workload_s",     "net.fault.sessions_s",
    "interval.union_s",   "net.replica_sim_s",
};

/// Spans and work counters of one replay pass.
struct Ledger {
  std::array<double, kLayerCount> seconds{};
  std::array<std::uint64_t, kLayerCount> spans{};
  /// Per-call durations (microseconds) for the latency percentiles.
  std::vector<double> select_us;
  std::vector<double> evaluate_us;

  std::uint64_t select_calls = 0;
  std::uint64_t candidates = 0;  ///< candidate holders offered to select
  std::uint64_t replicas = 0;    ///< holders select returned
  std::uint64_t evaluate_calls = 0;
  std::uint64_t delay_pushes = 0;
  std::uint64_t delay_pairs = 0;  ///< sum of n(n-1) over participating nodes
  std::uint64_t rows_reduced = 0;
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t feeds = 0;
  std::uint64_t writes = 0;
  std::uint64_t groups_realized = 0;
  std::uint64_t fault_intervals = 0;  ///< session pieces sessions() returned
  std::uint64_t add_calls = 0;        ///< IntervalSet::add calls
  std::uint64_t replica_sim_calls = 0;
  std::uint64_t replica_sim_events = 0;
  std::uint64_t replica_sim_updates = 0;

  /// Ends a span of `layer` opened at `start`; returns its seconds.
  double close(Layer layer, Clock::time_point start) {
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    seconds[layer] += s;
    ++spans[layer];
    return s;
  }

  /// Sum of every layer's span time.
  double attributed() const;
};

struct ReplayResult {
  std::uint64_t checksum = 0;
  std::uint64_t ops = 0;  ///< same unit as run_engine's ops
  double replay_s = 0;    ///< wall time of the whole pass
  Ledger ledger;
};

/// One serial traced pass of `workload` over `cohort`. A layer the
/// workload never calls still gets one empty span, so its time reads the
/// cost of a span rather than a constant.
ReplayResult replay(const Workload& workload,
                    const dosn::synth::ScaleStudyInput& input,
                    std::span<const dosn::graph::UserId> cohort,
                    std::uint64_t seed);

}  // namespace perfbench
