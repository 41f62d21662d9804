// Per-user metric evaluation: all of the paper's efficiency metrics for one
// user, under one replica configuration or under many.
//
// A UserTable holds everything about one user that does not depend on the
// placement: the covered elementary segments of the day with the owner's
// and the contacts' cover, each received activity classified into its
// segment, and a lazily filled pair-delay memo among owner and contacts.
// One placement run then costs one pass over the segments plus the delay
// pushes of its picks, however many runs the table serves (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "interval/day_schedule.hpp"
#include "interval/delay_graph.hpp"
#include "metrics/delay.hpp"
#include "trace/dataset.hpp"

namespace dosn::sim {

using interval::DaySchedule;

/// All Sec II-C metrics for one user under one replica configuration.
struct UserMetrics {
  double availability = 0.0;
  double max_availability = 0.0;  ///< F2F upper bound (all contacts)
  double aod_time = 0.0;
  double aod_activity = 0.0;
  double aod_activity_expected = 0.0;
  double aod_activity_unexpected = 0.0;
  double delay_actual_h = 0.0;
  double delay_observed_h = 0.0;
  double replicas_used = 0.0;  ///< realized replication degree
};

/// One user's evaluation table, reusable across users.
///
/// build() sorts the endpoints of the owner's and every position's pieces
/// into elementary segments — maximal intervals on which the set of online
/// nodes is constant — and keeps the covered ones, each with its length,
/// an owner flag, a demand flag and a cover mask over positions
/// (⌈positions / 64⌉ words). Positions 0..d-1 are the user's contacts in
/// graph order, then every holder of build()'s list that is not a contact,
/// in first-appearance order; those extra positions count towards
/// availability but not towards the demand. Each received activity is
/// counted into the segment holding its time of day.
///
/// evaluate() then gives a run's rows: with rank[p] = i + 1 for the run's
/// pick i, a segment is first served at prefix 0 when the owner covers it,
/// else at the smallest rank in its mask, and bucketing lengths and
/// activity counts by that prefix turns every prefix's availability and
/// AoD into running sums. The sums are the integer measures the interval
/// unions would give, so every double equals the union-based evaluation's.
///
/// Every buffer keeps its capacity: once warmed on one user, building a
/// user that is no larger (degree, schedule pieces, holders, segments) and
/// evaluating its runs allocates nothing.
class UserTable {
 public:
  /// Builds user `u`'s table over `schedules` (every user's schedule).
  /// `holders` lists every holder the runs will pick; holders that are not
  /// contacts get positions after the contacts.
  void build(const trace::Dataset& dataset,
             std::span<const DaySchedule> schedules, graph::UserId u,
             std::span<const graph::UserId> holders,
             placement::Connectivity connectivity);

  /// Position of holders[i] (of the last build()), for evaluate().
  std::span<const std::uint32_t> holder_positions() const {
    return holder_positions_;
  }

  /// Rows k = first_k..k_max (out[k - first_k]) of the run that picks the
  /// positions `picks` in order: row k evaluates the first min(k, |picks|)
  /// picks. `out` must hold k_max - first_k + 1 rows.
  void evaluate(std::span<const std::uint32_t> picks, std::size_t first_k,
                std::size_t k_max, std::span<UserMetrics> out);

  /// Adds the work done since the last flush to the obs counters
  /// (sim.user_tables, sim.prefix_sweeps, sim.prefix_points,
  /// sim.activities_classified, sim.delay_edges, sim.delay_pushes,
  /// sim.observed_pieces) and zeroes it. Callers flush once per shard, so
  /// the per-user path touches no atomic.
  void flush_counters();

 private:
  /// rank_ of a position the current run does not pick.
  static constexpr std::uint32_t kUnpicked = UINT32_MAX;

  /// Segments the owner covers are always served from prefix 0, so build()
  /// folds them into these per-user totals; the seg_* arrays keep the rest
  /// (the segments some position covers and the owner does not).
  struct Totals {
    interval::Seconds covered = 0, demand = 0;
    std::uint64_t expected = 0, unexpected = 0;
  };

  struct Pending {
    std::uint64_t tables = 0, runs = 0, rows = 0, activities = 0;
    std::uint64_t delay_edges = 0, delay_pushes = 0, observed_pieces = 0;
  };

  /// Adds the segment [start, end) with the sweep's current cover.
  void emit_segment(interval::Seconds start, interval::Seconds end,
                    bool owner, bool demand);

  std::size_t contacts_ = 0;   ///< d: positions below it are contacts
  std::size_t positions_ = 0;  ///< contacts plus extra holders
  std::size_t words_ = 1;      ///< mask words per segment
  std::vector<std::uint32_t> holder_positions_;
  std::vector<graph::UserId> extras_;  ///< extra holders' user ids

  // Sweep scratch: packed (time, node) endpoint events and the cover mask.
  std::vector<std::uint64_t> events_;
  std::vector<std::uint64_t> cover_;

  // Segments no owner piece covers, struct-of-arrays.
  std::vector<interval::Seconds> seg_start_, seg_length_;
  std::vector<std::uint8_t> seg_demand_;
  std::vector<std::uint32_t> seg_expected_, seg_unexpected_;
  std::vector<std::uint64_t> seg_mask_;  // words_ per segment
  Totals owner_;
  interval::Seconds demand_s_ = 0;
  double max_availability_ = 0.0;
  std::uint64_t expected_total_ = 0, unexpected_total_ = 0;

  // Per-run scratch.
  std::vector<std::uint32_t> rank_;
  std::vector<interval::Seconds> covered_at_, demand_at_;
  std::vector<std::uint64_t> expected_at_, unexpected_at_;

  interval::PairDelayMemo memo_;
  metrics::DelayPrefixEvaluator delay_{DaySchedule{},
                                       placement::Connectivity::kConRep};
  std::uint64_t memo_edges_counted_ = 0;
  Pending pending_;
};

/// Evaluates user `u` hosting replicas at `replica_holders` (selection
/// prefix of a policy). `schedules` spans every user in the dataset. The
/// last row of evaluate_user_prefixes over the holders.
UserMetrics evaluate_user(const trace::Dataset& dataset,
                          std::span<const DaySchedule> schedules,
                          graph::UserId u,
                          std::span<const graph::UserId> replica_holders,
                          placement::Connectivity connectivity);

/// Evaluates user `u` at every replication prefix of `selected` at once:
/// element k of the result equals
/// evaluate_user(dataset, schedules, u, selected[0..min(k, |selected|)), c)
/// bit for bit, for k = 0..k_max. Builds the user's table and evaluates
/// the one run.
std::vector<UserMetrics> evaluate_user_prefixes(
    const trace::Dataset& dataset, std::span<const DaySchedule> schedules,
    graph::UserId u, std::span<const graph::UserId> selected,
    placement::Connectivity connectivity, std::size_t k_max);

/// Reusable buffers for the allocation-free evaluate_user_prefixes
/// overload: one instance per worker, reused across users, so steady-state
/// evaluation does not allocate once the table has warmed up.
struct EvalScratch {
  UserTable table;
};

/// Allocation-free evaluate_user_prefixes: identical rows (bit for bit),
/// written into `out` (resized to k_max + 1) using only `scratch`'s
/// buffers. The allocating overload above is a thin wrapper over this one.
void evaluate_user_prefixes(const trace::Dataset& dataset,
                            std::span<const DaySchedule> schedules,
                            graph::UserId u,
                            std::span<const graph::UserId> selected,
                            placement::Connectivity connectivity,
                            std::size_t k_max, EvalScratch& scratch,
                            std::vector<UserMetrics>& out);

}  // namespace dosn::sim
