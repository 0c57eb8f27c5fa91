#include "harness/workloads.h"

#include "common/rng.h"

namespace perfbench {

namespace {

// small_files: the E3 HyRD sweep point at 10^5 tenants with the default
// TenantConfig (4 ops of 4 KiB, 25% PUT after the first). Per-op fixed
// costs dominate: event queue, fair-queue backlog, a store with >10^5
// keys, the REST envelope, metadata upserts. 4 KiB stays below the 1 MiB
// erasure threshold, so the coding kernels are never reached.
hyrd::sim::ScaleoutConfig small_files(std::uint64_t seed) {
  hyrd::sim::ScaleoutConfig c;
  c.tenants = 100'000;
  c.seed = seed;
  return c;
}

// large_files: 2 MiB objects, 50% PUT. Per-byte costs dominate (parity
// encode, CRC32C over MiBs, buffer copies) while the event queue, fair
// queue and metadata do almost nothing per op.
hyrd::sim::ScaleoutConfig large_files(std::uint64_t seed) {
  hyrd::sim::ScaleoutConfig c;
  c.tenants = 256;
  c.seed = seed;
  c.tenant.ops = 16;
  c.tenant.object_bytes = 2u << 20;
  c.tenant.write_ratio = 0.5;
  c.arena_bytes = 8u << 20;
  return c;
}

// outage_campaign: the standard E4 campaign, unchanged, at 3000 tenants.
// Same layers as small_files, but on the failure path: 429s, retry and
// backoff, update-log resync, degraded reads.
hyrd::sim::ScaleoutConfig outage_campaign(std::uint64_t seed) {
  return hyrd::sim::standard_campaign_config("HyRD", 3000, seed);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"small_files", "large_files",
                                                 "outage_campaign"};
  return names;
}

std::optional<hyrd::sim::ScaleoutConfig> make_workload(const std::string& name,
                                                       std::uint64_t seed) {
  if (name == "small_files") return small_files(seed);
  if (name == "large_files") return large_files(seed);
  if (name == "outage_campaign") return outage_campaign(seed);
  return std::nullopt;
}

std::vector<std::uint64_t> run_seeds(const std::string& name,
                                     std::uint64_t seed) {
  // A seed's loop takes ~10 s on small_files, ~3 s on large_files and
  // ~0.7 s on outage_campaign: about 20 s for a run's seeds.
  const std::size_t count =
      name == "small_files" ? 2 : name == "large_files" ? 3 : 6;
  std::vector<std::uint64_t> seeds = {seed};
  hyrd::common::SplitMix64 derive(seed);
  while (seeds.size() < count) seeds.push_back(derive.next());
  return seeds;
}

std::string validate_workload(const hyrd::sim::ScaleoutConfig& config) {
  if (config.scheme != "HyRD") {
    return "the harness runs the HyRD client only, not " + config.scheme;
  }
  if (config.cache.enabled) return "the client cache is not driven";
  if (config.tenants == 0 || config.tenant.ops == 0) {
    return "the workload issues no operations";
  }
  if (config.tenant.object_bytes > config.arena_bytes) {
    return "object_bytes (" + std::to_string(config.tenant.object_bytes) +
           ") exceeds arena_bytes (" + std::to_string(config.arena_bytes) +
           "): Tenant::draw_payload would underflow";
  }
  return "";
}

}  // namespace perfbench
