// The benchmark harness must stay the code the determinism pins cover: at
// reduced scale and the same seed, its deterministic outputs equal
// sim::run_scaleout's report for every workload config, traced or not.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "harness/alloc_counter.h"
#include "harness/reference.h"
#include "harness/stack.h"
#include "harness/workloads.h"
#include "sim/scaleout.h"

namespace {

hyrd::sim::ScaleoutConfig reduced(const std::string& name, std::uint64_t seed) {
  hyrd::sim::ScaleoutConfig c = *perfbench::make_workload(name, seed);
  if (name == "small_files") {
    c.tenants = 2000;
  } else if (name == "large_files") {
    c.tenants = 16;
    c.tenant.ops = 4;
  } else {
    c.tenants = 300;
  }
  return c;
}

using Point = std::tuple<std::string, std::uint64_t>;

class HarnessMatchesScaleout : public ::testing::TestWithParam<Point> {
 protected:
  void expect_matches(bool traced) {
    const auto& [name, seed] = GetParam();
    const hyrd::sim::ScaleoutConfig config = reduced(name, seed);
    ASSERT_EQ(perfbench::validate_workload(config), "");
    const hyrd::sim::ScaleoutReport report = hyrd::sim::run_scaleout(config);
    const perfbench::RunResult run = perfbench::run_once(config, traced);
    const perfbench::Outcome& o = run.outcome;
    EXPECT_GT(o.ops_ok, 0u);
    EXPECT_EQ(o.ops_ok, report.ops_ok);
    EXPECT_EQ(o.ops_failed, report.ops_failed);
    EXPECT_EQ(o.events, report.events_dispatched);
    EXPECT_EQ(o.provider_ops, report.provider_ops);
    EXPECT_EQ(o.provider_throttled, report.provider_throttled);
    EXPECT_EQ(o.p50_ms, report.p50_ms);
    EXPECT_EQ(o.p99_ms, report.p99_ms);
    EXPECT_EQ(o.virtual_seconds, report.virtual_seconds);
    EXPECT_EQ(o.retries, report.retries);
    double recovery = 0;
    if (config.campaign.enabled) {
      const double outage_at =
          hyrd::common::to_seconds(config.campaign.outage_at);
      recovery = hyrd::sim::timeline_recovery_seconds(
          report.timeline, outage_at - 2.0, outage_at,
          outage_at + hyrd::common::to_seconds(config.campaign.outage_duration),
          0.9);
      ASSERT_GE(recovery, 0.0);
    }
    EXPECT_EQ(o.recovery_vs, recovery);
    EXPECT_EQ(run.ledger.has_value(), traced);
    if (traced) {
      EXPECT_GT(run.ledger->oracle_checked, 0u);
      EXPECT_EQ(run.ledger->oracle_failed, 0u);
    }
  }
};

TEST_P(HarnessMatchesScaleout, Untraced) { expect_matches(false); }
TEST_P(HarnessMatchesScaleout, Traced) { expect_matches(true); }

INSTANTIATE_TEST_SUITE_P(
    Workloads, HarnessMatchesScaleout,
    ::testing::Combine(::testing::Values("small_files", "large_files",
                                         "outage_campaign"),
                       ::testing::Values(42u, 7u)),
    [](const ::testing::TestParamInfo<Point>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(HarnessDeterminism, TracedAndUntracedOutcomesAgree) {
  const hyrd::sim::ScaleoutConfig config = reduced("outage_campaign", 3);
  const auto plain = perfbench::run_once(config, false);
  const auto traced = perfbench::run_once(config, true);
  EXPECT_TRUE(perfbench::outcome_diff(plain.outcome, traced.outcome).empty());
}

TEST(HarnessDeterminism, AllocationCountsRepeatOnSmallFiles) {
  const hyrd::sim::ScaleoutConfig config = reduced("small_files", 42);
  const auto first = perfbench::run_once(config, true);
  const auto second = perfbench::run_once(config, true);
  EXPECT_GT(first.ledger->allocs.count, 0u);
  EXPECT_EQ(first.ledger->allocs.count, second.ledger->allocs.count);
  EXPECT_EQ(first.ledger->allocs.bytes, second.ledger->allocs.bytes);
}

TEST(ReferenceKernel, SlicesAreNotCountedAsTheSystemsAllocations) {
  perfbench::ReferenceKernel& kernel = perfbench::reference_kernel();
  const perfbench::AllocTally before = perfbench::alloc_tally();
  perfbench::set_alloc_counting(true);
  const double seconds = kernel.run_slice();
  perfbench::set_alloc_counting(false);
  const perfbench::AllocTally after = perfbench::alloc_tally();
  EXPECT_GT(seconds, 0.0);
  EXPECT_EQ(after.count, before.count);
  EXPECT_EQ(after.bytes, before.bytes);
}

TEST(ReferenceKernel, EveryStretchOfTheLoopIsScaled) {
  const auto run = perfbench::run_once(reduced("outage_campaign", 3), false);
  ASSERT_FALSE(run.reference_slices.empty());
  EXPECT_GT(run.loop_cpu_s, 0.0);
  EXPECT_GT(run.loop_ref_s, 0.0);
  for (const double slice : run.reference_slices) EXPECT_GT(slice, 0.0);
}

TEST(RunSeeds, StartWithTheGivenSeedAndRepeat) {
  for (const auto& name : perfbench::workload_names()) {
    const auto seeds = perfbench::run_seeds(name, 42);
    ASSERT_FALSE(seeds.empty());
    EXPECT_EQ(seeds.front(), 42u);
    EXPECT_EQ(seeds, perfbench::run_seeds(name, 42));
    EXPECT_NE(seeds, perfbench::run_seeds(name, 43));
  }
}

TEST(WorkloadGuard, AcceptsEveryWorkload) {
  for (const auto& name : perfbench::workload_names()) {
    EXPECT_EQ(perfbench::validate_workload(*perfbench::make_workload(name, 1)),
              "")
        << name;
  }
}

TEST(WorkloadGuard, RejectsObjectLargerThanArena) {
  hyrd::sim::ScaleoutConfig config = *perfbench::make_workload("large_files", 1);
  config.arena_bytes = config.tenant.object_bytes - 1;
  EXPECT_NE(perfbench::validate_workload(config), "");
  config.arena_bytes = config.tenant.object_bytes;
  EXPECT_EQ(perfbench::validate_workload(config), "");
}

TEST(WorkloadGuard, RejectsUnknownWorkload) {
  EXPECT_FALSE(perfbench::make_workload("no_such_workload", 1).has_value());
}

}  // namespace
