#include "cloud/provider.h"

#include <gtest/gtest.h>

#include "cloud/profiles.h"

namespace hyrd::cloud {
namespace {

ProviderConfig test_config(const std::string& name = "TestCloud") {
  ProviderConfig c;
  c.name = name;
  c.latency = LatencyParams{.jitter_sigma = 0.0};
  c.prices.storage_gb_month = 0.1;
  c.prices.data_out_gb = 0.2;
  return c;
}

TEST(SimProvider, FiveFunctionLifecycle) {
  SimProvider p(test_config(), 1);
  ASSERT_TRUE(p.create("c").ok());
  ASSERT_TRUE(p.put({"c", "k"}, common::bytes_of("hello")).ok());

  auto got = p.get({"c", "k"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(common::to_string(got.data), "hello");
  EXPECT_EQ(got.bytes_transferred, 5u);

  auto listing = p.list("c");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.names, std::vector<std::string>{"k"});

  ASSERT_TRUE(p.remove({"c", "k"}).ok());
  EXPECT_FALSE(p.get({"c", "k"}).ok());
}

TEST(SimProvider, LatencyIsPositiveAndSizeDependent) {
  SimProvider p(test_config(), 1);
  p.create("c");
  auto small = p.put({"c", "s"}, common::Bytes(1000, 0));
  auto large = p.put({"c", "l"}, common::Bytes(1000000, 0));
  EXPECT_GT(small.latency, 0);
  EXPECT_GT(large.latency, small.latency);
}

TEST(SimProvider, OfflineRejectsEverything) {
  SimProvider p(test_config(), 1);
  p.create("c");
  p.put({"c", "k"}, common::bytes_of("v"));
  p.set_online(false);

  EXPECT_EQ(p.get({"c", "k"}).status.code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(p.put({"c", "k2"}, common::Buffer()).status.code(),
            common::StatusCode::kUnavailable);
  EXPECT_EQ(p.list("c").status.code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(p.remove({"c", "k"}).status.code(),
            common::StatusCode::kUnavailable);
  EXPECT_EQ(p.create("c2").status.code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(p.counters().rejected_unavailable, 5u);
}

TEST(SimProvider, TransientOutagePreservesData) {
  SimProvider p(test_config(), 1);
  p.create("c");
  p.put({"c", "k"}, common::bytes_of("v"));
  p.set_online(false);
  p.set_online(true);
  auto got = p.get({"c", "k"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(common::to_string(got.data), "v");
}

TEST(SimProvider, PermanentFailureWipesData) {
  SimProvider p(test_config(), 1);
  p.create("c");
  p.put({"c", "k"}, common::bytes_of("v"));
  p.fail_permanently();
  EXPECT_FALSE(p.online());
  EXPECT_TRUE(p.permanently_failed());
  // A destroyed provider cannot be resurrected: set_online(true) is
  // refused and every op keeps failing as unavailable.
  EXPECT_FALSE(p.set_online(true));
  EXPECT_FALSE(p.online());
  EXPECT_EQ(p.get({"c", "k"}).status.code(),
            common::StatusCode::kUnavailable);
}

TEST(SimProvider, PermanentFailureStillAllowsGoingOffline) {
  SimProvider p(test_config(), 1);
  p.fail_permanently();
  // Only resurrection is refused; a redundant "go offline" is fine.
  EXPECT_TRUE(p.set_online(false));
  EXPECT_FALSE(p.online());
}

TEST(SimProvider, CountersTrackOpsAndBytes) {
  SimProvider p(test_config(), 1);
  p.create("c");
  p.put({"c", "k"}, common::Bytes(100, 0));
  p.get({"c", "k"});
  p.get({"c", "k"});
  p.list("c");
  auto counters = p.counters();
  EXPECT_EQ(counters.creates, 1u);
  EXPECT_EQ(counters.puts, 1u);
  EXPECT_EQ(counters.gets, 2u);
  EXPECT_EQ(counters.lists, 1u);
  EXPECT_EQ(counters.bytes_written, 100u);
  EXPECT_EQ(counters.bytes_read, 200u);
  EXPECT_EQ(counters.total_ops(), 5u);
  p.reset_counters();
  EXPECT_EQ(p.counters().total_ops(), 0u);
}

TEST(SimProvider, BillingChargesOps) {
  SimProvider p(test_config(), 1);
  p.create("c");
  p.put({"c", "k"}, common::Bytes(1'000'000, 0));
  p.get({"c", "k"});
  auto bill = p.close_month();
  EXPECT_EQ(bill.bytes_in, 1'000'000u);
  EXPECT_EQ(bill.bytes_out, 1'000'000u);
  EXPECT_GT(bill.egress_cost, 0.0);
  EXPECT_EQ(bill.stored_bytes, 1'000'000u);
}

TEST(SimProvider, DeterministicForSameSeed) {
  SimProvider a(test_config(), 99);
  SimProvider b(test_config(), 99);
  a.create("c");
  b.create("c");
  // Jitter disabled here, so add some.
  auto cfg = test_config();
  cfg.latency.jitter_sigma = 0.2;
  SimProvider c1(cfg, 5), c2(cfg, 5);
  c1.create("c");
  c2.create("c");
  auto r1 = c1.put({"c", "k"}, common::Bytes(5000, 0));
  auto r2 = c2.put({"c", "k"}, common::Bytes(5000, 0));
  EXPECT_EQ(r1.latency, r2.latency);
}

TEST(Profiles, TableIIPricesTranscribed) {
  const auto s3 = amazon_s3_profile();
  EXPECT_DOUBLE_EQ(s3.prices.storage_gb_month, 0.033);
  EXPECT_DOUBLE_EQ(s3.prices.data_out_gb, 0.201);
  EXPECT_DOUBLE_EQ(s3.prices.put_class_per_10k, 0.047);
  EXPECT_DOUBLE_EQ(s3.prices.get_class_per_10k, 0.0037);

  const auto azure = windows_azure_profile();
  EXPECT_DOUBLE_EQ(azure.prices.storage_gb_month, 0.157);
  EXPECT_DOUBLE_EQ(azure.prices.data_out_gb, 0.0);

  const auto aliyun = aliyun_profile();
  EXPECT_DOUBLE_EQ(aliyun.prices.storage_gb_month, 0.029);
  EXPECT_DOUBLE_EQ(aliyun.prices.data_out_gb, 0.123);
  EXPECT_DOUBLE_EQ(aliyun.prices.put_class_per_10k, 0.0016);

  const auto rs = rackspace_profile();
  EXPECT_DOUBLE_EQ(rs.prices.storage_gb_month, 0.13);
  EXPECT_DOUBLE_EQ(rs.prices.data_out_gb, 0.0);
}

TEST(Profiles, CategoriesMatchTableII) {
  EXPECT_EQ(amazon_s3_profile().declared_category.str(), "cost-oriented");
  EXPECT_EQ(windows_azure_profile().declared_category.str(),
            "performance-oriented");
  EXPECT_EQ(aliyun_profile().declared_category.str(), "both");
  EXPECT_EQ(rackspace_profile().declared_category.str(), "cost-oriented");
}

TEST(Profiles, AliyunIsFastestProvider) {
  // Paper Fig. 5: Aliyun has the lowest access latency across sizes.
  const auto configs = standard_four();
  const auto aliyun = aliyun_profile();
  for (const auto& c : configs) {
    if (c.name == "Aliyun") continue;
    for (std::uint64_t size : {4096ull, 65536ull, 1048576ull, 4194304ull}) {
      LatencyModel other(c.latency), ali(aliyun.latency);
      EXPECT_LT(ali.expected(OpKind::kGet, size),
                other.expected(OpKind::kGet, size))
          << c.name << " size=" << size;
      EXPECT_LT(ali.expected(OpKind::kPut, size),
                other.expected(OpKind::kPut, size))
          << c.name << " size=" << size;
    }
  }
}

}  // namespace
}  // namespace hyrd::cloud
