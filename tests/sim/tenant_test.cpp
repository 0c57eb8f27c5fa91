// Tenant payload draws: an object larger than the shared arena is rejected
// where the tenant (or the run_scaleout fleet) is configured, in every build
// type, instead of underflowing the arena offset span.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cloud/profiles.h"
#include "common/buffer.h"
#include "core/hyrd_client.h"
#include "gcsapi/session.h"
#include "sim/scaleout.h"
#include "sim/tenant.h"

namespace hyrd::sim {
namespace {

common::Buffer arena_of(std::size_t bytes) {
  return common::MutableBuffer(bytes).freeze();
}

TEST(Tenant, RejectsObjectLargerThanArena) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 7);
  gcs::MultiCloudSession session(registry);
  core::HyRDClient client(session);
  FleetMetrics metrics;
  TenantConfig config;
  config.object_bytes = 4097;
  const common::Buffer arena = arena_of(4096);
  EXPECT_THROW(Tenant(0, 1, config, client, arena, metrics),
               std::invalid_argument);
  config.object_bytes = 4096;  // an arena-sized object is the edge that fits
  EXPECT_NO_THROW(Tenant(0, 1, config, client, arena, metrics));
}

TEST(Tenant, RunScaleoutRejectsObjectLargerThanArena) {
  ScaleoutConfig config;
  config.tenants = 4;
  config.tenant.object_bytes = 2048;
  config.arena_bytes = 1024;
  EXPECT_THROW((void)run_scaleout(config), std::invalid_argument);
}

TEST(Tenant, ArenaSizedObjectsRunToCompletion) {
  ScaleoutConfig config;
  config.tenants = 4;
  config.tenant.object_bytes = 1024;
  config.arena_bytes = 1024;
  const ScaleoutReport report = run_scaleout(config);
  EXPECT_EQ(report.ops_ok + report.ops_failed, 4u * config.tenant.ops);
  EXPECT_EQ(report.ops_failed, 0u);
}

}  // namespace
}  // namespace hyrd::sim
