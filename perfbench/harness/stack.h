// The benchmark harness: builds the HyRD client stack from its public
// constructors, exactly as sim::run_scaleout does, runs the closed-loop
// tenant fleet on the event queue, and reads back what the run did.
//
// An untraced run times only set-up and the event loop. A traced run wraps
// the client in a TracingClient, counts heap allocations during the loop,
// and afterwards GETs every path whose last PUT was acknowledged, checking
// the bytes against the CRC32C the wrapper recorded.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "harness/alloc_counter.h"
#include "sim/scaleout.h"

namespace perfbench {

/// What a run did; identical for identical (config, seed), traced or not.
struct Outcome {
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t events = 0;
  std::uint64_t retries = 0;            // tenant attempts beyond the first
  std::uint64_t provider_ops = 0;       // fleet-wide, incl. fan-out
  std::uint64_t provider_puts = 0;
  std::uint64_t provider_gets = 0;
  std::uint64_t provider_throttled = 0;
  std::uint64_t provider_bytes_written = 0;
  std::uint64_t provider_objects_max = 0;  // most objects on one provider
  std::uint64_t peak_queue_depth = 0;      // max over providers
  std::uint64_t stored_bytes = 0;          // provider-resident at the end
  std::uint64_t live_user_bytes = 0;       // sum of live file sizes
  std::uint64_t degraded_reads = 0;
  std::uint64_t resurrected = 0;           // a lost provider came back
  double virtual_seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double put_mean_ms = 0;
  double get_mean_ms = 0;
  double goodput_ops_per_vs = 0;
  double retry_amplification = 1.0;
  /// Virtual seconds from the end of the campaign's outage until windowed
  /// goodput is back at 90% of its pre-outage level (the E4 recovery
  /// check's reading of the timeline); 0 without an outage.
  double recovery_vs = 0;
  double usd = 0;  // request + transfer dollars billed during the loop
  // Virtual client latencies, kept so that runs can be pooled.
  hyrd::common::LogHistogram latency_ms{0.1, 1.25, 120};
  hyrd::common::RunningStat put_ms;
  hyrd::common::RunningStat get_ms;
  /// Deltas of every obs::MetricsRegistry counter across the loop.
  std::map<std::string, std::uint64_t> counters;

  [[nodiscard]] std::uint64_t ops() const { return ops_ok + ops_failed; }

  /// Every field as (name, value), in a fixed order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> fields() const;
};

/// Names of the fields on which two outcomes differ (empty when equal).
std::vector<std::string> outcome_diff(const Outcome& a, const Outcome& b);

/// Per-layer observations of a traced run.
struct Ledger {
  std::vector<double> put_us;   // wall time of each client PUT call
  std::vector<double> get_us;
  double client_s = 0;          // wall time inside the wrapper
  std::uint64_t user_put_bytes = 0;
  AllocTally allocs;            // during the event loop
  hyrd::common::LogHistogram lookup_ns{16.0, 2.0, 28};  // sampled 1 in 64
  hyrd::common::LogHistogram upsert_ns{16.0, 2.0, 28};
  std::uint64_t oracle_checked = 0;  // paths read back
  std::uint64_t oracle_failed = 0;   // unreadable or wrong bytes
};

struct RunResult {
  double setup_s = 0;  // stack + evaluator probes + fleet construction
  double setup_ref_s = 0;  // setup_s in reference-speed seconds
  double loop_s = 0;   // wall time of the event loop
  double loop_cpu_s = 0;  // CPU time of the whole process during the loop
  /// loop_cpu_s in reference-speed seconds: each stretch of the loop scaled
  /// by kNominalSliceSeconds / the reference slices around it.
  double loop_ref_s = 0;
  std::vector<double> reference_slices;  // CPU seconds of each slice
  Outcome outcome;
  std::optional<Ledger> ledger;  // traced runs only
};

/// Threads for the session pool: the library default (8), capped at the
/// host's core count.
std::size_t pool_threads();

/// Runs `config` once. `config` must pass validate_workload.
RunResult run_once(const hyrd::sim::ScaleoutConfig& config, bool traced);

/// Builds the whole stack and fleet, tears it down unrun, and returns the
/// set-up time in reference-speed seconds.
double setup_once(const hyrd::sim::ScaleoutConfig& config);

}  // namespace perfbench
