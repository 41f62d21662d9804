#include "sim/evaluate.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace dosn::sim {
namespace {

/// Evaluation-volume metrics (DESIGN.md §9): how many per-user tables were
/// built and how much work the runs over them did. UserTable batches them
/// and flushes once per shard — the evaluation runs inside the parallel
/// cohort loop, so the per-user work must stay atomic-free.
struct EvalMetrics {
  obs::Counter& full_evals =
      obs::Registry::global().counter("sim.full_evals");
  /// One per cohort user per schedule realization per sweep cell.
  obs::Counter& user_tables =
      obs::Registry::global().counter("sim.user_tables");
  /// Placement runs evaluated over a table (one per user per run).
  obs::Counter& prefix_sweeps =
      obs::Registry::global().counter("sim.prefix_sweeps");
  /// Rows the runs produced (k_max + 1 per replication-sweep run).
  obs::Counter& prefix_points =
      obs::Registry::global().counter("sim.prefix_points");
  obs::Counter& activities_classified =
      obs::Registry::global().counter("sim.activities_classified");
  /// Pair-delay memo fills: edge kernels, at most one per unordered
  /// owner/contact pair under ConRep and one per ordered pair under
  /// UnconRep, per user.
  obs::Counter& delay_edges =
      obs::Registry::global().counter("sim.delay_edges");
  /// Picks pushed into the prefix delay (one per pick a run evaluates).
  obs::Counter& delay_pushes =
      obs::Registry::global().counter("sim.delay_pushes");
  /// Delay-matrix entries the pushes computed: per push onto m
  /// participants, m(m+1)/2 under ConRep (the symmetric upper triangle)
  /// and m(m+1) under UnconRep.
  obs::Counter& delay_relaxations =
      obs::Registry::global().counter("sim.delay_relaxations");
  /// Reader pieces passed to the observed-delay kernel, summed over calls.
  obs::Counter& observed_pieces =
      obs::Registry::global().counter("sim.observed_pieces");
};

EvalMetrics& eval_metrics() {
  static EvalMetrics m;
  return m;
}

// Analytic ranges every per-user evaluation must respect: ratios are
// proper fractions, delays non-negative. Violations here mean a metric
// kernel regressed, which would skew every averaged curve downstream.
void check_metric_ranges(const UserMetrics& m) {
  DOSN_DCHECK(m.availability >= 0.0 && m.availability <= 1.0,
              "availability out of [0, 1]: ", m.availability);
  DOSN_DCHECK(m.aod_time >= 0.0 && m.aod_time <= 1.0,
              "aod_time out of [0, 1]: ", m.aod_time);
  DOSN_DCHECK(m.aod_activity >= 0.0 && m.aod_activity <= 1.0,
              "aod_activity out of [0, 1]: ", m.aod_activity);
  DOSN_DCHECK(m.delay_actual_h >= 0.0,
              "negative actual delay: ", m.delay_actual_h);
  DOSN_DCHECK(m.delay_observed_h >= 0.0,
              "negative observed delay: ", m.delay_observed_h);
}

/// served / total, vacuously 1 when there is nothing to serve.
double ratio(std::uint64_t served, std::uint64_t total) {
  return total > 0 ? static_cast<double>(served) / static_cast<double>(total)
                   : 1.0;
}

}  // namespace

void UserTable::build(const trace::Dataset& dataset,
                      std::span<const DaySchedule> schedules, graph::UserId u,
                      std::span<const graph::UserId> holders,
                      placement::Connectivity connectivity) {
  DOSN_REQUIRE(schedules.size() == dataset.num_users(),
               "evaluate_user: schedule count mismatch");
  const DaySchedule& owner = schedules[u];
  const auto contacts = dataset.graph.contacts(u);
  contacts_ = contacts.size();

  // Positions: the contacts (graph rows are sorted), then the holders that
  // are not contacts, in first-appearance order.
  extras_.clear();
  holder_positions_.resize(holders.size());
  for (std::size_t i = 0; i < holders.size(); ++i) {
    const graph::UserId host = holders[i];
    DOSN_CHECK(host < schedules.size(), "evaluate_user: replica holder ",
               host, " has no schedule (", schedules.size(), " users)");
    const auto it = std::lower_bound(contacts.begin(), contacts.end(), host);
    std::size_t pos = static_cast<std::size_t>(it - contacts.begin());
    if (it == contacts.end() || *it != host) {
      const auto extra = std::find(extras_.begin(), extras_.end(), host);
      pos = contacts_ + static_cast<std::size_t>(extra - extras_.begin());
      if (extra == extras_.end()) extras_.push_back(host);
    }
    holder_positions_[i] = static_cast<std::uint32_t>(pos);
  }
  positions_ = contacts_ + extras_.size();
  words_ = std::max<std::size_t>(1, (positions_ + 63) / 64);
  const auto schedule_at = [&](std::size_t pos) -> const DaySchedule& {
    return schedules[pos < contacts_ ? contacts[pos]
                                     : extras_[pos - contacts_]];
  };

  // The pair-delay memo: positions at their own keys, the owner after them.
  pending_.delay_edges += memo_.edge_evaluations() - memo_edges_counted_;
  memo_edges_counted_ = 0;
  memo_.reset(connectivity == placement::Connectivity::kConRep
                  ? interval::RendezvousMode::kDirect
                  : interval::RendezvousMode::kRelay,
              positions_ + 1);
  memo_.set_node(positions_, owner.set().pieces());

  // Every piece endpoint as (time << 32 | node), the owner as node
  // positions_. Canonical pieces never touch, so each event toggles its
  // node and the events at one instant commute.
  events_.clear();
  const auto add_events = [&](std::span<const interval::Interval> pieces,
                              std::size_t node) {
    for (const auto& piece : pieces) {
      events_.push_back(static_cast<std::uint64_t>(piece.start) << 32 | node);
      events_.push_back(static_cast<std::uint64_t>(piece.end) << 32 | node);
    }
  };
  add_events(owner.set().pieces(), positions_);
  for (std::size_t pos = 0; pos < positions_; ++pos) {
    const auto pieces = schedule_at(pos).set().pieces();
    memo_.set_node(pos, pieces);
    add_events(pieces, pos);
  }
  std::sort(events_.begin(), events_.end());

  owner_ = Totals{};
  demand_s_ = 0;
  seg_start_.clear();
  seg_length_.clear();
  seg_demand_.clear();
  seg_expected_.clear();
  seg_unexpected_.clear();
  seg_mask_.clear();
  cover_.assign(words_, 0);
  bool owner_on = false;
  std::size_t online = 0, demand_online = 0;  // positions in cover_
  interval::Seconds prev = 0;
  for (std::size_t e = 0; e < events_.size();) {
    const auto t = static_cast<interval::Seconds>(events_[e] >> 32);
    if (t > prev && (owner_on || online > 0))
      emit_segment(prev, t, owner_on, demand_online > 0);
    for (; e < events_.size() &&
           static_cast<interval::Seconds>(events_[e] >> 32) == t;
         ++e) {
      const std::size_t node = events_[e] & 0xffffffffU;
      if (node == positions_) {
        owner_on = !owner_on;
        continue;
      }
      const std::uint64_t bit = std::uint64_t{1} << (node % 64);
      std::uint64_t& word = cover_[node / 64];
      word ^= bit;
      const bool on = (word & bit) != 0;
      online = on ? online + 1 : online - 1;
      if (node < contacts_)
        demand_online = on ? demand_online + 1 : demand_online - 1;
    }
    prev = t;
  }
  DOSN_ASSERT(!owner_on && online == 0);

  // |owner ∪ demand| = |owner| + |demand \ owner|, exactly.
  max_availability_ =
      static_cast<double>(owner_.covered + (demand_s_ - owner_.demand)) /
      static_cast<double>(interval::kDaySeconds);

  // Each received activity is served from the prefix that first covers its
  // time of day: 0 inside the owner's pieces, else the first serving
  // prefix of its segment, never outside every segment.
  expected_total_ = unexpected_total_ = 0;
  std::uint64_t activities = 0;
  for (const auto& a : dataset.trace.received_by(u)) {
    ++activities;
    const interval::Seconds tod = interval::time_of_day(a.timestamp);
    DOSN_ASSERT(a.creator < schedules.size());
    const bool is_expected = schedules[a.creator].set().contains(tod);
    (is_expected ? expected_total_ : unexpected_total_) += 1;
    if (owner.set().contains(tod)) {
      (is_expected ? owner_.expected : owner_.unexpected) += 1;
      continue;
    }
    const auto it = std::upper_bound(seg_start_.begin(), seg_start_.end(), tod);
    if (it == seg_start_.begin()) continue;
    const auto s = static_cast<std::size_t>(it - seg_start_.begin()) - 1;
    if (tod >= seg_start_[s] + seg_length_[s]) continue;
    (is_expected ? seg_expected_ : seg_unexpected_)[s] += 1;
  }

  rank_.assign(positions_, kUnpicked);
  pending_.tables += 1;
  pending_.activities += activities;
}

void UserTable::emit_segment(interval::Seconds start, interval::Seconds end,
                             bool owner, bool demand) {
  const interval::Seconds length = end - start;
  if (demand) demand_s_ += length;
  if (owner) {
    owner_.covered += length;
    if (demand) owner_.demand += length;
    return;
  }
  seg_start_.push_back(start);
  seg_length_.push_back(length);
  seg_demand_.push_back(demand ? 1 : 0);
  seg_expected_.push_back(0);
  seg_unexpected_.push_back(0);
  seg_mask_.insert(seg_mask_.end(), cover_.begin(), cover_.end());
}

void UserTable::evaluate(std::span<const std::uint32_t> picks,
                         std::size_t first_k, std::size_t k_max,
                         std::span<UserMetrics> out) {
  DOSN_ASSERT(first_k <= k_max && out.size() == k_max - first_k + 1);
  const std::size_t take_max = std::min(k_max, picks.size());
  for (std::size_t i = 0; i < take_max; ++i) {
    DOSN_CHECK(picks[i] < positions_);
    std::uint32_t& rank = rank_[picks[i]];
    rank = std::min(rank, static_cast<std::uint32_t>(i + 1));
  }

  // Bucket every segment by its first serving prefix; take_max + 1 collects
  // the segments no prefix serves.
  const auto never = static_cast<std::uint32_t>(take_max + 1);
  covered_at_.assign(take_max + 2, 0);
  demand_at_.assign(take_max + 2, 0);
  expected_at_.assign(take_max + 2, 0);
  unexpected_at_.assign(take_max + 2, 0);
  covered_at_[0] = owner_.covered;
  demand_at_[0] = owner_.demand;
  expected_at_[0] = owner_.expected;
  unexpected_at_[0] = owner_.unexpected;
  const std::uint64_t* mask = seg_mask_.data();
  for (std::size_t s = 0; s < seg_start_.size(); ++s, mask += words_) {
    std::uint32_t first = never;
    for (std::size_t w = 0; w < words_; ++w)
      for (std::uint64_t m = mask[w]; m != 0; m &= m - 1)
        first = std::min(
            first, rank_[w * 64 + static_cast<std::size_t>(std::countr_zero(m))]);
    covered_at_[first] += seg_length_[s];
    if (seg_demand_[s] != 0) demand_at_[first] += seg_length_[s];
    expected_at_[first] += seg_expected_[s];
    unexpected_at_[first] += seg_unexpected_[s];
  }
  for (std::size_t i = 0; i < take_max; ++i) rank_[picks[i]] = kUnpicked;

  delay_.reset(memo_, positions_);
  interval::Seconds covered = 0, demand_served = 0;
  std::uint64_t expected_served = 0, unexpected_served = 0;
  UserMetrics last;
  for (std::size_t k = 0; k <= take_max; ++k) {
    if (k >= 1) delay_.push(picks[k - 1]);
    covered += covered_at_[k];
    demand_served += demand_at_[k];
    expected_served += expected_at_[k];
    unexpected_served += unexpected_at_[k];
    if (k < first_k && k < take_max) continue;

    UserMetrics m;
    m.availability = static_cast<double>(covered) /
                     static_cast<double>(interval::kDaySeconds);
    m.max_availability = max_availability_;
    m.aod_time = demand_s_ == 0 ? 1.0
                                : static_cast<double>(demand_served) /
                                      static_cast<double>(demand_s_);
    m.aod_activity = ratio(expected_served + unexpected_served,
                           expected_total_ + unexpected_total_);
    m.aod_activity_expected = ratio(expected_served, expected_total_);
    m.aod_activity_unexpected = ratio(unexpected_served, unexpected_total_);
    const auto d = delay_.result();
    m.delay_actual_h = d.actual_hours();
    m.delay_observed_h = d.observed_hours();
    m.replicas_used = static_cast<double>(k);
    check_metric_ranges(m);
    if (k >= first_k) {
      // The profile only grows along the prefix, so availability is
      // non-decreasing in k — the monotonicity the paper's sweeps rely on.
      DOSN_DCHECK(k == first_k ||
                      m.availability >= out[k - first_k - 1].availability,
                  "availability decreased along prefix at k = ", k);
      out[k - first_k] = m;
    }
    last = m;
  }
  // Past the selection every row is the whole selection's.
  for (std::size_t k = std::max(first_k, take_max + 1); k <= k_max; ++k)
    out[k - first_k] = last;

  pending_.runs += 1;
  pending_.rows += out.size();
  pending_.delay_pushes += take_max;
  pending_.delay_relaxations += delay_.relaxations();
  pending_.observed_pieces += delay_.observed_pieces();
}

void UserTable::flush_counters() {
  pending_.delay_edges += memo_.edge_evaluations() - memo_edges_counted_;
  memo_edges_counted_ = memo_.edge_evaluations();
  EvalMetrics& em = eval_metrics();
  em.user_tables.add(pending_.tables);
  em.prefix_sweeps.add(pending_.runs);
  em.prefix_points.add(pending_.rows);
  em.activities_classified.add(pending_.activities);
  em.delay_edges.add(pending_.delay_edges);
  em.delay_pushes.add(pending_.delay_pushes);
  em.delay_relaxations.add(pending_.delay_relaxations);
  em.observed_pieces.add(pending_.observed_pieces);
  pending_ = Pending{};
}

UserMetrics evaluate_user(const trace::Dataset& dataset,
                          std::span<const DaySchedule> schedules,
                          graph::UserId u,
                          std::span<const graph::UserId> replica_holders,
                          placement::Connectivity connectivity) {
  UserTable table;
  table.build(dataset, schedules, u, replica_holders, connectivity);
  UserMetrics m;
  const std::size_t k = replica_holders.size();
  table.evaluate(table.holder_positions(), k, k, {&m, 1});
  table.flush_counters();
  eval_metrics().full_evals.add(1);
  return m;
}

std::vector<UserMetrics> evaluate_user_prefixes(
    const trace::Dataset& dataset, std::span<const DaySchedule> schedules,
    graph::UserId u, std::span<const graph::UserId> selected,
    placement::Connectivity connectivity, std::size_t k_max) {
  EvalScratch scratch;
  std::vector<UserMetrics> out;
  evaluate_user_prefixes(dataset, schedules, u, selected, connectivity, k_max,
                         scratch, out);
  return out;
}

void evaluate_user_prefixes(const trace::Dataset& dataset,
                            std::span<const DaySchedule> schedules,
                            graph::UserId u,
                            std::span<const graph::UserId> selected,
                            placement::Connectivity connectivity,
                            std::size_t k_max, EvalScratch& scratch,
                            std::vector<UserMetrics>& out) {
  UserTable& table = scratch.table;
  table.build(dataset, schedules, u, selected, connectivity);
  out.resize(k_max + 1);
  table.evaluate(table.holder_positions(), 0, k_max, out);
  table.flush_counters();
}

}  // namespace dosn::sim
