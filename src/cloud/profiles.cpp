#include "cloud/profiles.h"

#include "cloud/registry.h"

namespace hyrd::cloud {

ProviderConfig amazon_s3_profile() {
  ProviderConfig c;
  c.name = "AmazonS3";
  c.prices = PriceSchedule{
      .storage_gb_month = 0.033,
      .data_in_gb = 0.0,
      .data_out_gb = 0.201,
      .put_class_per_10k = 0.047,
      .get_class_per_10k = 0.0037,
      .storage_tiers = {},
      .egress_tiers = {},
  };
  c.latency = LatencyParams{
      .read_first_byte_ms = 210.0,
      .write_first_byte_ms = 290.0,
      .read_mbps = 1.9,
      .write_mbps = 1.35,
      .congestion_threshold = 1u << 20,
      .congestion_factor = 2.4,
      .jitter_sigma = 0.10,
      .metadata_op_ms = 160.0,
  };
  c.declared_category = {.cost_oriented = true, .performance_oriented = false};
  return c;
}

ProviderConfig windows_azure_profile() {
  ProviderConfig c;
  c.name = "WindowsAzure";
  c.prices = PriceSchedule{
      .storage_gb_month = 0.157,
      .data_in_gb = 0.0,
      .data_out_gb = 0.0,
      .put_class_per_10k = 0.0,
      .get_class_per_10k = 0.0,
      .storage_tiers = {},
      .egress_tiers = {},
  };
  c.latency = LatencyParams{
      .read_first_byte_ms = 85.0,
      .write_first_byte_ms = 120.0,
      .read_mbps = 2.2,
      .write_mbps = 1.55,
      .congestion_threshold = 1u << 20,
      .congestion_factor = 2.1,
      .jitter_sigma = 0.09,
      .metadata_op_ms = 70.0,
  };
  c.declared_category = {.cost_oriented = false, .performance_oriented = true};
  return c;
}

ProviderConfig aliyun_profile() {
  ProviderConfig c;
  c.name = "Aliyun";
  c.prices = PriceSchedule{
      .storage_gb_month = 0.029,
      .data_in_gb = 0.0,
      .data_out_gb = 0.123,
      .put_class_per_10k = 0.0016,
      .get_class_per_10k = 0.0016,
      .storage_tiers = {},
      .egress_tiers = {},
  };
  c.latency = LatencyParams{
      .read_first_byte_ms = 35.0,
      .write_first_byte_ms = 55.0,
      .read_mbps = 2.5,
      .write_mbps = 1.8,
      .congestion_threshold = 1u << 20,
      .congestion_factor = 1.9,
      .jitter_sigma = 0.07,
      .metadata_op_ms = 30.0,
  };
  // The paper classifies Aliyun as both cost- and performance-oriented
  // (lowest latency *and* lowest storage price).
  c.declared_category = {.cost_oriented = true, .performance_oriented = true};
  return c;
}

ProviderConfig rackspace_profile() {
  ProviderConfig c;
  c.name = "Rackspace";
  c.prices = PriceSchedule{
      .storage_gb_month = 0.13,
      .data_in_gb = 0.0,
      .data_out_gb = 0.0,
      .put_class_per_10k = 0.0,
      .get_class_per_10k = 0.0,
      .storage_tiers = {},
      .egress_tiers = {},
  };
  c.latency = LatencyParams{
      .read_first_byte_ms = 260.0,
      .write_first_byte_ms = 340.0,
      .read_mbps = 2.0,
      .write_mbps = 1.4,
      .congestion_threshold = 1u << 20,
      .congestion_factor = 2.5,
      .jitter_sigma = 0.11,
      .metadata_op_ms = 190.0,
  };
  // Table II's bottom row lists Rackspace as cost-oriented (free egress and
  // transactions despite the higher storage price).
  c.declared_category = {.cost_oriented = true, .performance_oriented = false};
  return c;
}

std::vector<ProviderConfig> standard_four() {
  return {amazon_s3_profile(), windows_azure_profile(), aliyun_profile(),
          rackspace_profile()};
}

void install_standard_four(CloudRegistry& registry, std::uint64_t seed) {
  for (auto& config : standard_four()) {
    registry.add(std::move(config), seed);
  }
}

}  // namespace hyrd::cloud
