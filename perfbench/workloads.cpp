#include "workloads.hpp"

#include <array>

namespace perfbench {

using dosn::placement::Connectivity;

std::optional<Workload> find_workload(std::string_view name) {
  const std::array<Workload, 4> all{{
      {"study_conrep", true, Connectivity::kConRep, 0.0, 0.0},
      {"study_unconrep", true, Connectivity::kUnconRep, 0.0, 0.0},
      {"serve_feed", false, Connectivity::kConRep, 0.60, 0.40},
      {"serve_write", false, Connectivity::kConRep, 0.0, 0.0},
  }};
  for (const auto& w : all)
    if (w.name == name) return w;
  return std::nullopt;
}

dosn::synth::ScaleInputConfig input_config(std::size_t users) {
  dosn::synth::ScaleOptions opts;
  opts.users = users;
  dosn::synth::ScaleInputConfig config;
  config.preset = dosn::synth::scale_preset(opts);
  // The most populated degree at the default seed. Fixed, so that no seed
  // moves the cohort to a neighbouring degree and changes the work per user.
  config.cohort_degree = 7;
  return config;
}

dosn::sim::StreamingOptions study_options(std::size_t cohort_degree) {
  dosn::sim::StreamingOptions options;
  options.cohort_degree = cohort_degree;
  options.k_max = 10;
  options.repetitions = 5;
  options.policies = {dosn::placement::PolicyKind::kMaxAv,
                      dosn::placement::PolicyKind::kMostActive,
                      dosn::placement::PolicyKind::kRandom};
  return options;
}

dosn::serve::ServingConfig serving_config(const Workload& workload,
                                          std::uint64_t seed) {
  dosn::serve::ServingConfig config;
  config.policy = dosn::placement::PolicyKind::kMaxAv;
  config.connectivity = workload.connectivity;
  config.replicas = 5;
  config.served_users = 0;  // the whole cohort
  config.workload.read_fraction = workload.read_fraction;
  config.workload.feed_fraction = workload.feed_fraction;
  // The churn plan of bench/serving_load's stressed case, at half
  // intensity.
  dosn::net::FaultPlan plan;
  plan.seed = seed ^ 0x5eedf417ULL;
  plan.session_no_show = 0.25;
  plan.session_truncate = 0.25;
  plan.truncate_max_fraction = 0.6;
  plan.relay_outages.push_back(
      {dosn::interval::kDaySeconds, 2 * dosn::interval::kDaySeconds});
  config.faults = dosn::net::scaled(plan, 0.5);
  return config;
}

std::uint64_t run_engine(const Workload& workload,
                         const dosn::synth::ScaleStudyInput& input,
                         std::span<const dosn::graph::UserId> cohort,
                         std::uint64_t seed, dosn::util::ThreadPool* pool,
                         std::uint64_t& ops) {
  if (!workload.study) {
    const auto report = dosn::serve::run_serving_study(
        input.dataset, input.schedules, cohort, seed,
        serving_config(workload, seed), pool);
    ops = report.requests;
    return report.request_log_checksum;
  }
  auto options = study_options(input.cohort_degree);
  options.pool = pool;
  options.threads = 1;  // used only when pool is null: the serial reference
  options.shard_size = 256;
  const dosn::sim::StreamingStudy study(input.dataset, seed);
  const auto result = study.replication_sweep(
      input.schedules, input.model_name, workload.connectivity, options);
  ops = 0;
  for (const auto kind : options.policies) {
    const auto policy = dosn::placement::make_policy(kind);
    ops += (policy->randomized() ? options.repetitions : 1) * cohort.size();
  }
  return dosn::sim::sweep_checksum(result);
}

std::optional<std::uint64_t> recorded_checksum(std::string_view workload,
                                               std::size_t users,
                                               std::uint64_t seed) {
  struct Entry {
    std::string_view workload;
    std::size_t users;
    std::uint64_t seed;
    std::uint64_t checksum;
  };
  // Recorded from the serial engine at the default seed; the traced
  // replay reproduces each of them independently of the engine's loop.
  static constexpr std::array<Entry, 8> kRecorded{{
      {"study_conrep", 100'000, kDefaultSeed, 15495300248510183940ULL},
      {"study_unconrep", 100'000, kDefaultSeed, 14140342209618250875ULL},
      {"serve_feed", 100'000, kDefaultSeed, 16129194120617085703ULL},
      {"serve_write", 100'000, kDefaultSeed, 17376628293548693626ULL},
      // The self-test's toy size.
      {"study_conrep", 5'000, kDefaultSeed, 6858516607396804919ULL},
      {"study_unconrep", 5'000, kDefaultSeed, 14301945103835611308ULL},
      {"serve_feed", 5'000, kDefaultSeed, 1514008343878973776ULL},
      {"serve_write", 5'000, kDefaultSeed, 5437530828452066735ULL},
  }};
  for (const auto& e : kRecorded)
    if (e.workload == workload && e.users == users && e.seed == seed)
      return e.checksum;
  return std::nullopt;
}

}  // namespace perfbench
