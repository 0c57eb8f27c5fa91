// The scale-out experiment harness: builds a fleet of simulated providers
// (with congestion enabled), one shared StorageClient for the scheme under
// test, and N closed-loop tenants on the discrete-event queue; runs the
// event loop to completion and reports throughput / tail latency / memory.
//
// Shared between bench_scaleout (the sweep driver) and the integration
// tests (determinism: same seed => byte-identical report JSON), so the
// JSON serialization lives here, split into a deterministic core and
// environment-dependent extras (wall time, RSS) that reproducible runs
// exclude.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_config.h"
#include "cloud/congestion.h"
#include "obs/trace.h"
#include "sim/tenant.h"
#include "sim/timeline.h"

namespace hyrd::sim {

/// A scripted disruption campaign layered onto a scale-out run: one
/// correlated multi-provider outage, one brownout, and one permanent
/// provider loss, all dispatched as FailureInjector events on the tenant
/// queue. Empty provider lists / names disable the corresponding phase.
struct CampaignConfig {
  bool enabled = false;

  std::vector<std::string> outage_providers;  // flip offline together
  common::SimDuration outage_at = 12 * common::kSecond;
  common::SimDuration outage_duration = 8 * common::kSecond;

  std::vector<std::string> brownout_providers;
  common::SimDuration brownout_at = 24 * common::kSecond;
  common::SimDuration brownout_duration = 8 * common::kSecond;
  double brownout_scale = 8.0;

  std::string lost_provider;  // destroyed (store wiped); "" = none
  common::SimDuration lost_at = 36 * common::kSecond;
};

struct ScaleoutConfig {
  /// Scheme under test: "HyRD", "DuraCloud" (replicated), or "RACS" (RS).
  std::string scheme = "HyRD";
  std::size_t tenants = 1000;
  std::uint64_t seed = 42;
  TenantConfig tenant;

  /// Provider-side capacity model, applied to every provider of the fleet.
  cloud::CongestionParams congestion;
  bool congestion_enabled = true;

  /// Tenants wake for their first op uniformly staggered across this
  /// window, so the fleet ramps instead of stampeding at t=0.
  common::SimDuration ramp = 30 * common::kSecond;

  /// Shared payload arena size (tenant puts slice windows out of it); below
  /// tenant.object_bytes, run_scaleout throws std::invalid_argument.
  std::size_t arena_bytes = 1u << 20;

  /// Session-level (CloudClient) retry policy for every cloud op the scheme
  /// issues. Default: the legacy 3-attempt deterministic ladder.
  gcs::RetryPolicy client_retry = {};

  /// Scripted disruptions (outage / brownout / permanent loss) delivered as
  /// events on the same queue the tenants run on.
  CampaignConfig campaign;

  /// Time-series sampler (sim/timeline.h). Off by default: its tick events
  /// count toward events_dispatched, which the plain-run determinism
  /// contract pins. standard_campaign_config() enables it.
  TimelineConfig timeline;

  /// When set, per-op trace spans from every layer are recorded here for
  /// the duration of the measured run (setup traffic is not traced).
  obs::TraceRecorder* trace = nullptr;

  /// Client cache (write-back group commit + read-through). Disabled by
  /// default: the plain-run determinism pins require the uncached paths
  /// byte-identical. When enabled, the run drains the cache at the end
  /// (no queue events — events_dispatched is unchanged) and accounts any
  /// undrainable dirty data as lost.
  cache::CacheConfig cache;
};

struct ScaleoutReport {
  // --- Deterministic core (stable across identical-seed runs) ---
  std::string scheme;
  std::uint64_t seed = 0;
  std::size_t tenants = 0;
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t provider_ops = 0;     // fleet-wide, incl. fan-out
  std::uint64_t provider_throttled = 0;  // 429s at the congestion cap
  std::size_t peak_queue_depth = 0;   // max over providers
  double virtual_seconds = 0;         // fleet makespan in virtual time
  double throughput_ops_per_vs = 0;   // ok client ops per virtual second
  double mean_ms = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double put_mean_ms = 0;
  double get_mean_ms = 0;
  /// Client-side metadata stats issued (tenant.stat_ratio traffic): served
  /// by the sharded MetadataStore, never reaching a provider.
  std::uint64_t meta_stats = 0;

  // --- Failure-response accounting (deterministic; campaign-meaningful) ---
  std::uint64_t retries = 0;          // tenant attempts beyond the first
  double retry_amplification = 1.0;   // (ops + retries) / ops
  double goodput_ops_per_vs = 0;      // ok client ops per virtual second
  std::uint64_t failure_events = 0;   // applied injector transitions
  /// Virtual seconds between the last transient disruption's end and the
  /// last failed attempt the fleet saw — 0 when the fleet recovered before
  /// (or exactly when) the disruption lifted, or when nothing was injected.
  double recovery_virtual_seconds = 0;
  /// 1 if any permanently-failed provider ended the run online — the
  /// resurrection bug this PR fixes; must stay 0.
  std::uint64_t provider_resurrected = 0;

  // --- Client cache accounting (deterministic; zero when disabled) ---
  std::uint64_t cache_absorbed = 0;        // writes absorbed by write-back
  std::uint64_t cache_coalesced = 0;       // absorbed overwrites of dirty paths
  std::uint64_t cache_flush_batches = 0;   // group commits issued
  std::uint64_t cache_flushed_entries = 0; // entries written via group commit
  std::uint64_t cache_read_hits = 0;       // read-cache hits
  std::uint64_t cache_dirty_hits = 0;      // reads served from dirty data
  std::uint64_t cache_flush_failures = 0;  // entries restored after failures
  std::uint64_t cache_drain_flushed = 0;   // entries flushed by the end drain
  std::uint64_t cache_dirty_lost_entries = 0;  // unflushable at end of run
  std::uint64_t cache_dirty_lost_bytes = 0;

  // --- Timeline (deterministic; serialized by timeline_to_json, not
  // --- report_to_json, so the report JSON bytes are unchanged) ---
  std::vector<TimelineRow> timeline;
  std::vector<std::string> timeline_providers;
  double timeline_interval_vs = 0;

  // --- Environment-dependent (excluded from stable JSON) ---
  double wall_ms = 0;             // real time for the whole point
  std::uint64_t rss_bytes = 0;    // process RSS after the run
  std::uint64_t rss_delta_bytes = 0;  // growth across the run
  double bytes_per_tenant = 0;    // rss_delta / tenants
};

/// Runs one experiment point. Deterministic given (config, seed): the
/// event loop is single-threaded and every RNG stream derives from
/// config.seed. (The session pool still exists for erasure encode overlap,
/// but compute tasks draw no randomness.)
ScaleoutReport run_scaleout(const ScaleoutConfig& config);

/// The standard E4 failure campaign against the standard four providers:
/// tight congestion (so throttling is real), jittered tenant + client
/// retries, a correlated two-provider outage (the two performance-oriented
/// providers HyRD replicates to), a brownout on AmazonS3, and permanent
/// loss of Aliyun. Deterministic per (scheme, tenants, seed).
ScaleoutConfig standard_campaign_config(std::string scheme,
                                        std::size_t tenants,
                                        std::uint64_t seed);

/// Serializes a report as one JSON object with sorted, fixed keys.
/// `include_env` adds the wall-clock/RSS fields; reproducibility checks
/// pass false and compare bytes.
std::string report_to_json(const ScaleoutReport& report, bool include_env);

/// Current process resident set in bytes (0 where unsupported).
std::uint64_t current_rss_bytes();

}  // namespace hyrd::sim
