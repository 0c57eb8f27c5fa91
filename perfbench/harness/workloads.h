// The benchmark's named workloads, each a sim::ScaleoutConfig (the same
// description sim::run_scaleout takes, so the harness and the scale-out
// harness can be compared point for point).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/scaleout.h"

namespace perfbench {

/// Names of every workload, in the order `run.py` runs them.
const std::vector<std::string>& workload_names();

/// The config of workload `name` for `seed`, or nullopt for an unknown name.
std::optional<hyrd::sim::ScaleoutConfig> make_workload(const std::string& name,
                                                       std::uint64_t seed);

/// The seeds one benchmark run of workload `name` pools its deterministic
/// metrics over: `seed` itself first, then seeds derived from it. Small
/// workloads pool several seeds so that a run's virtual-time figures do not
/// swing with the tail of one seed.
std::vector<std::uint64_t> run_seeds(const std::string& name,
                                     std::uint64_t seed);

/// Rejects configs the harness cannot run faithfully. Returns the reason, or
/// an empty string when the config is accepted.
///
/// object_bytes > arena_bytes is rejected because sim::Tenant::draw_payload
/// computes `arena.size() - object_bytes` unsigned and would underflow into
/// an out-of-range slice.
std::string validate_workload(const hyrd::sim::ScaleoutConfig& config);

}  // namespace perfbench
