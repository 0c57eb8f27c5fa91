#include <gtest/gtest.h>

#include <cmath>

#include "cloud/latency_model.h"
#include "cloud/pricing.h"
#include "common/units.h"

namespace hyrd::cloud {
namespace {

LatencyParams flat_params() {
  LatencyParams p;
  p.read_first_byte_ms = 100.0;
  p.write_first_byte_ms = 150.0;
  p.read_mbps = 1.0;  // 1 MB/s => 1 ms per KB
  p.write_mbps = 1.0;
  p.congestion_threshold = 1u << 20;
  p.congestion_factor = 2.0;
  p.jitter_sigma = 0.0;
  p.metadata_op_ms = 10.0;
  return p;
}

TEST(LatencyModel, FirstByteDominatesSmallReads) {
  LatencyModel m(flat_params());
  const auto lat = m.expected(OpKind::kGet, 0);
  EXPECT_DOUBLE_EQ(common::to_ms(lat), 100.0);
}

TEST(LatencyModel, TransferScalesLinearlyBelowThreshold) {
  LatencyModel m(flat_params());
  const double l1 = common::to_ms(m.expected(OpKind::kGet, 100 * 1000));
  const double l2 = common::to_ms(m.expected(OpKind::kGet, 200 * 1000));
  EXPECT_NEAR(l2 - l1, 100.0, 1e-6);  // +100 KB at 1 MB/s = +100 ms
}

TEST(LatencyModel, CongestionKneeAboveThreshold) {
  // The paper's Fig. 5 observation: latency grows disproportionally past
  // ~1 MB. Marginal cost per byte above the threshold must be
  // congestion_factor times the marginal cost below it.
  LatencyModel m(flat_params());
  const std::uint64_t t = (1u << 20);
  const double below = common::to_ms(m.expected(OpKind::kGet, t)) -
                       common::to_ms(m.expected(OpKind::kGet, t - 100000));
  const double above = common::to_ms(m.expected(OpKind::kGet, t + 100000)) -
                       common::to_ms(m.expected(OpKind::kGet, t));
  EXPECT_NEAR(above / below, 2.0, 1e-6);
}

TEST(LatencyModel, WritesSlowerThanReads) {
  LatencyModel m(flat_params());
  EXPECT_GT(m.expected(OpKind::kPut, 1000), m.expected(OpKind::kGet, 1000));
}

TEST(LatencyModel, MetadataOpsFlat) {
  LatencyModel m(flat_params());
  EXPECT_EQ(m.expected(OpKind::kList, 0), m.expected(OpKind::kRemove, 1 << 20));
  EXPECT_DOUBLE_EQ(common::to_ms(m.expected(OpKind::kCreate, 0)), 10.0);
}

TEST(LatencyModel, JitterIsMultiplicativeAndSeeded) {
  LatencyParams p = flat_params();
  p.jitter_sigma = 0.2;
  LatencyModel m(p);
  common::Xoshiro256 rng1(5), rng2(5);
  const auto a = m.sample(OpKind::kGet, 1000, rng1);
  const auto b = m.sample(OpKind::kGet, 1000, rng2);
  EXPECT_EQ(a, b);  // deterministic per seed
  // Mean over many samples approaches expected * exp(sigma^2/2).
  common::Xoshiro256 rng(7);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    sum += common::to_ms(m.sample(OpKind::kGet, 1000, rng));
  }
  const double expected_mean =
      common::to_ms(m.expected(OpKind::kGet, 1000)) * std::exp(0.2 * 0.2 / 2);
  EXPECT_NEAR(sum / 20000, expected_mean, expected_mean * 0.02);
}

TEST(LatencyModel, ZeroJitterSampleEqualsExpected) {
  LatencyModel m(flat_params());
  common::Xoshiro256 rng(1);
  EXPECT_EQ(m.sample(OpKind::kGet, 12345, rng),
            m.expected(OpKind::kGet, 12345));
}

TEST(PriceSchedule, StorageCostPerDecimalGB) {
  PriceSchedule p;
  p.storage_gb_month = 0.10;
  EXPECT_DOUBLE_EQ(p.storage_cost(1'000'000'000ull), 0.10);
  EXPECT_DOUBLE_EQ(p.storage_cost(500'000'000ull), 0.05);
}

TEST(PriceSchedule, TransferCosts) {
  PriceSchedule p;
  p.data_out_gb = 0.2;
  EXPECT_DOUBLE_EQ(p.ingress_cost(5'000'000'000ull), 0.0);
  EXPECT_DOUBLE_EQ(p.egress_cost(5'000'000'000ull), 1.0);
}

TEST(PriceSchedule, TransactionClasses) {
  PriceSchedule p;
  p.put_class_per_10k = 0.05;
  p.get_class_per_10k = 0.004;
  EXPECT_DOUBLE_EQ(p.txn_cost(OpKind::kPut, 10000), 0.05);
  EXPECT_DOUBLE_EQ(p.txn_cost(OpKind::kList, 10000), 0.05);
  EXPECT_DOUBLE_EQ(p.txn_cost(OpKind::kCreate, 10000), 0.05);
  EXPECT_DOUBLE_EQ(p.txn_cost(OpKind::kGet, 10000), 0.004);
  EXPECT_DOUBLE_EQ(p.txn_cost(OpKind::kRemove, 10000), 0.004);
}

TEST(ProviderCategory, Names) {
  EXPECT_EQ((ProviderCategory{true, true}).str(), "both");
  EXPECT_EQ((ProviderCategory{true, false}).str(), "cost-oriented");
  EXPECT_EQ((ProviderCategory{false, true}).str(), "performance-oriented");
  EXPECT_EQ((ProviderCategory{false, false}).str(), "uncategorized");
}

TEST(OpKind, PutClassMembership) {
  EXPECT_TRUE(is_put_class(OpKind::kPut));
  EXPECT_TRUE(is_put_class(OpKind::kCreate));
  EXPECT_TRUE(is_put_class(OpKind::kList));
  EXPECT_FALSE(is_put_class(OpKind::kGet));
  EXPECT_FALSE(is_put_class(OpKind::kRemove));
}

}  // namespace
}  // namespace hyrd::cloud
