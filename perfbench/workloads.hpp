// The benchmark's four workloads and the engine configuration each runs.
//
// Every workload builds the synthetic scale preset at `users` users from
// the workload seed; the program receives only that generated input.
//
//   * study_conrep   — StreamingStudy::replication_sweep, ConRep, k = 0..10,
//                      MaxAv / MostActive / Random (Random repeated 5x);
//   * study_unconrep — the same sweep under UnconRep;
//   * serve_feed     — run_serving_study over the whole cohort, MaxAv,
//                      ConRep, 5 replicas, half-intensity churn, reads only
//                      (60% profile reads, 40% feeds);
//   * serve_write    — the same configuration, writes only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/serving.hpp"
#include "sim/streaming.hpp"
#include "synth/scale.hpp"

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 20120618;
inline constexpr std::size_t kDefaultUsers = 100'000;

struct Workload {
  std::string name;
  bool study = true;  ///< replication sweep (else the serving study)
  dosn::placement::Connectivity connectivity =
      dosn::placement::Connectivity::kConRep;
  double read_fraction = 0.0;  ///< serving mix (serve_* only)
  double feed_fraction = 0.0;
};

/// The workload named `name`; nullopt for an unknown name.
std::optional<Workload> find_workload(std::string_view name);

/// Scale-preset generation config at `users` users.
dosn::synth::ScaleInputConfig input_config(std::size_t users);

/// Sweep options of the study workloads (the caller sets pool/threads).
dosn::sim::StreamingOptions study_options(std::size_t cohort_degree);

/// Serving configuration of the serve workloads under `seed`.
dosn::serve::ServingConfig serving_config(const Workload& workload,
                                          std::uint64_t seed);

/// One engine pass over `cohort`: the sweep or the serving study, on
/// `pool` (null runs the serial reference). Returns the output checksum
/// (sweep_checksum / request_log_checksum) and sets `ops` to the
/// operations it performed: user evaluations (cohort user x policy run)
/// or simulated requests.
std::uint64_t run_engine(const Workload& workload,
                         const dosn::synth::ScaleStudyInput& input,
                         std::span<const dosn::graph::UserId> cohort,
                         std::uint64_t seed, dosn::util::ThreadPool* pool,
                         std::uint64_t& ops);

/// Checksum recorded for (workload, users, seed), when one was recorded.
std::optional<std::uint64_t> recorded_checksum(std::string_view workload,
                                               std::size_t users,
                                               std::uint64_t seed);

}  // namespace perfbench
