#include "harness/stack.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cloud/profiles.h"
#include "cloud/registry.h"
#include "common/buffer.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/virtual_time.h"
#include "core/hyrd_client.h"
#include "harness/reference.h"
#include "harness/tracing_client.h"
#include "gcsapi/session.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/failure.h"
#include "sim/tenant.h"
#include "sim/timeline.h"

namespace perfbench {

namespace sim = hyrd::sim;
namespace common = hyrd::common;

namespace {

using Clock = std::chrono::steady_clock;

// Flow ids no tenant can have (tenants count up from 0): the first is the
// one run_scaleout gives post-outage repair traffic.
constexpr std::uint64_t kRepairFlowId = ~0ull;
constexpr std::uint64_t kOracleFlowId = ~0ull - 1;

// The event loop is timed in stretches of about this much wall time, with
// the clock read every kEventsPerCheck events.
constexpr double kStretchSeconds = 0.05;
constexpr std::uint64_t kEventsPerCheck = 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Same bytes as run_scaleout's payload arena for the same seed.
common::Buffer make_arena(std::size_t bytes, std::uint64_t seed) {
  common::MutableBuffer arena(bytes);
  common::SplitMix64 mixer(seed ^ 0xa5a5a5a5a5a5a5a5ull);
  std::uint8_t* p = arena.data();
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const std::uint64_t word = mixer.next();
    std::memcpy(p + i, &word, 8);
  }
  if (i < bytes) {
    const std::uint64_t word = mixer.next();
    std::memcpy(p + i, &word, bytes - i);
  }
  return std::move(arena).freeze();
}

// Histogram `after` minus `before` (same geometry).
common::LogHistogram histogram_delta(
    const hyrd::obs::MetricsRegistry::Snapshot& before,
    const hyrd::obs::MetricsRegistry::Snapshot& after,
    const std::string& name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {16.0, 2.0, 28};
  std::vector<std::size_t> counts = a->second.counts();
  if (const auto b = before.histograms.find(name);
      b != before.histograms.end()) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] -= b->second.counts()[i];
    }
  }
  return {a->second.base(), a->second.growth(), std::move(counts)};
}

/// The client stack and tenant fleet of one run, in run_scaleout's
/// construction order (members are destroyed in reverse).
struct Stack {
  Stack(const sim::ScaleoutConfig& config, bool traced)
      : session(registry_ready(config), config.client_retry, pool_threads()),
        hyrd(session) {
    // Set-up traffic (container creates, evaluator probes) is not part of
    // the measured workload.
    for (const auto& provider : registry.all()) provider->reset_counters();
    hyrd.configure_cache(config.cache);
    hyrd::core::StorageClient* client = &hyrd;
    if (traced) {
      tracer = std::make_unique<TracingClient>(hyrd);
      client = tracer.get();
    }

    arena = make_arena(config.arena_bytes, config.seed);
    fleet.reserve(config.tenants);  // the queue holds raw pointers
    common::SplitMix64 seeder(config.seed);
    for (std::size_t i = 0; i < config.tenants; ++i) {
      fleet.emplace_back(static_cast<std::uint64_t>(i), seeder.next(),
                         config.tenant, *client, arena, metrics);
    }
    for (std::size_t i = 0; i < config.tenants; ++i) {
      const common::SimDuration at =
          config.tenants <= 1
              ? 0
              : static_cast<common::SimDuration>(
                    static_cast<double>(config.ramp) * static_cast<double>(i) /
                    static_cast<double>(config.tenants));
      queue.schedule_at(at, &fleet[i]);
    }

    if (config.campaign.enabled) {
      const sim::CampaignConfig& c = config.campaign;
      injector.emplace(registry, queue);
      if (!c.outage_providers.empty()) {
        injector->schedule_outage(c.outage_providers, c.outage_at,
                                  c.outage_duration);
      }
      if (!c.brownout_providers.empty()) {
        injector->schedule_brownout(c.brownout_providers, c.brownout_at,
                                    c.brownout_duration, c.brownout_scale);
      }
      if (!c.lost_provider.empty()) {
        injector->schedule_permanent_loss(c.lost_provider, c.lost_at);
      }
      injector->set_restore_listener(
          [this](const std::string& name, common::SimDuration at) {
            common::VirtualScope scope({at, kRepairFlowId, 1.0});
            hyrd.on_provider_restored(name);
          });
    }
    if (config.timeline.enabled) {
      sampler.emplace(config.timeline, metrics, registry, config.tenants);
      sampler->start(queue);
    }
  }

  // The queue, the fleet and the restore listener hold its address.
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  hyrd::cloud::CloudRegistry& registry_ready(const sim::ScaleoutConfig& c) {
    hyrd::cloud::install_standard_four(registry, c.seed);
    if (c.congestion_enabled) {
      for (const auto& provider : registry.all()) {
        provider->set_congestion(c.congestion);
      }
    }
    return registry;
  }

  double billed_usd() const {
    double usd = 0;
    for (const auto& provider : registry.all()) {
      usd += provider->billing().open_month_transfer_cost();
    }
    return usd;
  }

  hyrd::cloud::CloudRegistry registry;
  hyrd::gcs::MultiCloudSession session;
  hyrd::core::HyRDClient hyrd;
  std::unique_ptr<TracingClient> tracer;
  common::Buffer arena;
  sim::FleetMetrics metrics;
  sim::EventQueue queue;
  std::vector<sim::Tenant> fleet;
  std::optional<sim::FailureInjector> injector;
  std::optional<sim::TimelineSampler> sampler;
};

Outcome read_outcome(const Stack& s, const sim::ScaleoutConfig& config,
                     double usd_before,
                     std::uint64_t degraded_before,
                     const hyrd::obs::MetricsRegistry::Snapshot& before,
                     const hyrd::obs::MetricsRegistry::Snapshot& after) {
  const sim::FleetMetrics& m = s.metrics;
  Outcome o;
  o.ops_ok = m.ops_ok;
  o.ops_failed = m.ops_failed;
  o.events = s.queue.dispatched();
  o.retries = m.retries;
  for (const auto& provider : s.registry.all()) {
    const hyrd::cloud::OpCounters c = provider->counters();
    o.provider_ops += c.total_ops();
    o.provider_puts += c.puts;
    o.provider_gets += c.gets;
    o.provider_throttled += c.throttled;
    o.provider_bytes_written += c.bytes_written;
    o.provider_objects_max =
        std::max<std::uint64_t>(o.provider_objects_max, provider->object_count());
    o.stored_bytes += provider->stored_bytes();
    if (provider->congestion_enabled()) {
      o.peak_queue_depth = std::max<std::uint64_t>(
          o.peak_queue_depth, provider->congestion_stats().peak_depth);
    }
    if (provider->permanently_failed() && provider->online()) {
      o.resurrected = 1;
    }
  }
  for (const std::string& path : s.hyrd.list()) {
    if (const auto meta = s.hyrd.stat(path)) o.live_user_bytes += meta->size;
  }
  o.degraded_reads = s.hyrd.stats_snapshot().degraded_reads - degraded_before;

  // The same arithmetic as run_scaleout's report.
  o.virtual_seconds = common::to_seconds(m.last_completion);
  o.p50_ms = m.latency_ms.percentile(50.0);
  o.p99_ms = m.latency_ms.percentile(99.0);
  o.put_mean_ms = m.put_ms.mean();
  o.get_mean_ms = m.get_ms.mean();
  o.goodput_ops_per_vs = o.virtual_seconds > 0
                             ? static_cast<double>(o.ops_ok) / o.virtual_seconds
                             : 0.0;
  o.retry_amplification =
      o.ops() ? static_cast<double>(o.ops() + o.retries) /
                    static_cast<double>(o.ops())
              : 1.0;
  const sim::CampaignConfig& campaign = config.campaign;
  if (s.sampler.has_value() && campaign.enabled &&
      !campaign.outage_providers.empty()) {
    // Baseline: the two virtual seconds before the outage, as in E4.
    const double outage_at = common::to_seconds(campaign.outage_at);
    const double outage_end =
        outage_at + common::to_seconds(campaign.outage_duration);
    const double recovery = sim::timeline_recovery_seconds(
        s.sampler->rows(), outage_at - 2.0, outage_at, outage_end, 0.9);
    // Never recovered: charge the rest of the run.
    o.recovery_vs = recovery >= 0 ? recovery : o.virtual_seconds - outage_end;
  }
  o.latency_ms = m.latency_ms;
  o.put_ms = m.put_ms;
  o.get_ms = m.get_ms;
  o.usd = s.billed_usd() - usd_before;
  for (const auto& [name, value] : after.counters) {
    const auto b = before.counters.find(name);
    o.counters[name] = value - (b == before.counters.end() ? 0 : b->second);
  }
  return o;
}

// GETs every path whose last PUT was acknowledged and compares the bytes
// with the CRC32C recorded at PUT time. Reads run inline under a virtual
// scope after the fleet's last completion, one at a time on a flow of
// their own, so they never queue behind each other.
void read_back(Stack& s, Ledger& ledger) {
  std::unordered_map<std::string, const TracingClient::PutRecord*> last;
  for (const auto& record : s.tracer->puts()) last[record.path] = &record;
  std::vector<const TracingClient::PutRecord*> acked;
  for (const auto& [path, record] : last) {
    if (record->acked) acked.push_back(record);
  }
  std::sort(acked.begin(), acked.end(),
            [](const auto* a, const auto* b) { return a->path < b->path; });
  common::SimDuration now = s.metrics.last_completion + common::kSecond;
  for (const auto* record : acked) {
    common::VirtualScope scope({now, kOracleFlowId, 1.0});
    const hyrd::dist::ReadResult r = s.hyrd.get(record->path);
    now += r.latency + common::kMillisecond;
    ++ledger.oracle_checked;
    if (!r.status.is_ok() || r.data.size() != record->size ||
        common::crc32c(r.data.span()) != record->crc) {
      ++ledger.oracle_failed;
    }
  }
}

}  // namespace

std::vector<std::pair<std::string, double>> Outcome::fields() const {
  std::vector<std::pair<std::string, double>> f = {
      {"ops_ok", static_cast<double>(ops_ok)},
      {"ops_failed", static_cast<double>(ops_failed)},
      {"events", static_cast<double>(events)},
      {"retries", static_cast<double>(retries)},
      {"provider_ops", static_cast<double>(provider_ops)},
      {"provider_puts", static_cast<double>(provider_puts)},
      {"provider_gets", static_cast<double>(provider_gets)},
      {"provider_throttled", static_cast<double>(provider_throttled)},
      {"provider_bytes_written", static_cast<double>(provider_bytes_written)},
      {"provider_objects_max", static_cast<double>(provider_objects_max)},
      {"peak_queue_depth", static_cast<double>(peak_queue_depth)},
      {"stored_bytes", static_cast<double>(stored_bytes)},
      {"live_user_bytes", static_cast<double>(live_user_bytes)},
      {"degraded_reads", static_cast<double>(degraded_reads)},
      {"resurrected", static_cast<double>(resurrected)},
      {"virtual_seconds", virtual_seconds},
      {"p50_ms", p50_ms},
      {"p99_ms", p99_ms},
      {"put_mean_ms", put_mean_ms},
      {"get_mean_ms", get_mean_ms},
      {"goodput_ops_per_vs", goodput_ops_per_vs},
      {"retry_amplification", retry_amplification},
      {"recovery_vs", recovery_vs},
      {"usd", usd},
  };
  // Zero deltas are left out: a counter registers on first use, so it is
  // absent from runs that happen to come before its first increment.
  for (const auto& [name, value] : counters) {
    if (value != 0) f.emplace_back("counter:" + name, static_cast<double>(value));
  }
  return f;
}

std::vector<std::string> outcome_diff(const Outcome& a, const Outcome& b) {
  const auto fa = a.fields();
  const auto fb = b.fields();
  std::vector<std::string> diff;
  std::map<std::string, double> mb(fb.begin(), fb.end());
  for (const auto& [name, value] : fa) {
    const auto it = mb.find(name);
    if (it == mb.end() || it->second != value) diff.push_back(name);
    if (it != mb.end()) mb.erase(it);
  }
  for (const auto& [name, value] : mb) diff.push_back(name);
  return diff;
}

std::size_t pool_threads() {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(8, cores);
}

RunResult run_once(const sim::ScaleoutConfig& config, bool traced) {
  RunResult result;
  ReferenceKernel& reference = reference_kernel();
  const double slice_before_setup = reference.run_slice();
  const Clock::time_point setup_start = Clock::now();
  Stack s(config, traced);
  result.setup_s = seconds_since(setup_start);

  auto& registry = hyrd::obs::MetricsRegistry::global();
  const double usd_before = s.billed_usd();
  const std::uint64_t degraded_before = s.hyrd.stats_snapshot().degraded_reads;
  const auto before = registry.snapshot();
  const AllocTally allocs_before = alloc_tally();

  // The loop runs in stretches of about kStretchSeconds, each followed by a
  // reference slice; a stretch's CPU time is scaled by the mean of the
  // slices on either side of it. Only the stretches are timed.
  double slice_before = reference.run_slice();
  result.setup_ref_s =
      reference_seconds(result.setup_s, slice_before_setup, slice_before);
  if (traced) set_alloc_counting(true);
  for (std::uint64_t dispatched = kEventsPerCheck;
       dispatched == kEventsPerCheck;) {
    const double cpu_start = process_cpu_seconds();
    const Clock::time_point stretch_start = Clock::now();
    do {
      dispatched = s.queue.run(kEventsPerCheck);
    } while (dispatched == kEventsPerCheck &&
             seconds_since(stretch_start) < kStretchSeconds);
    const double wall = seconds_since(stretch_start);
    const double cpu = process_cpu_seconds() - cpu_start;
    const double slice_after = reference.run_slice();
    result.loop_s += wall;
    result.loop_cpu_s += cpu;
    result.loop_ref_s += reference_seconds(cpu, slice_before, slice_after);
    {
      const AllocPause pause;  // bookkeeping, not the system's allocation
      result.reference_slices.push_back(slice_after);
    }
    slice_before = slice_after;
  }
  if (traced) set_alloc_counting(false);

  const AllocTally allocs_after = alloc_tally();
  const auto after = registry.snapshot();
  result.outcome = read_outcome(s, config, usd_before, degraded_before, before, after);
  if (!traced) return result;

  Ledger& ledger = result.ledger.emplace();
  ledger.put_us = s.tracer->put_us();
  ledger.get_us = s.tracer->get_us();
  ledger.client_s = s.tracer->client_seconds();
  ledger.user_put_bytes = s.tracer->put_bytes();
  ledger.allocs = {allocs_after.count - allocs_before.count,
                   allocs_after.bytes - allocs_before.bytes};
  ledger.lookup_ns = histogram_delta(before, after, "meta.lookup.ns");
  ledger.upsert_ns = histogram_delta(before, after, "meta.upsert.ns");
  read_back(s, ledger);
  return result;
}

double setup_once(const sim::ScaleoutConfig& config) {
  ReferenceKernel& reference = reference_kernel();
  const double slice_before = reference.run_slice();
  const Clock::time_point start = Clock::now();
  const auto s = std::make_unique<Stack>(config, /*traced=*/false);
  const double seconds = seconds_since(start);  // teardown is not set-up
  return reference_seconds(seconds, slice_before, reference.run_slice());
}

}  // namespace perfbench
