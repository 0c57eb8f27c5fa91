// Byte-range operations: store- and provider-level semantics, latency and
// billing (these back the paper's block-granularity RAID5 update model).
#include <gtest/gtest.h>

#include "cloud/memory_store.h"
#include "cloud/provider.h"

namespace hyrd::cloud {
namespace {

TEST(MemoryStoreRange, GetRangeReturnsSlice) {
  MemoryStore store;
  store.create("c");
  store.put("c", "k", common::bytes_of("0123456789"));
  auto r = store.get_range("c", "k", 2, 5);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(common::to_string(r.value()), "23456");
}

TEST(MemoryStoreRange, GetRangeEdges) {
  MemoryStore store;
  store.create("c");
  store.put("c", "k", common::bytes_of("abcd"));
  EXPECT_EQ(common::to_string(store.get_range("c", "k", 0, 4).value()), "abcd");
  EXPECT_EQ(common::to_string(store.get_range("c", "k", 3, 1).value()), "d");
  EXPECT_EQ(store.get_range("c", "k", 4, 0).value().size(), 0u);
  EXPECT_FALSE(store.get_range("c", "k", 3, 2).is_ok());  // past end
  EXPECT_FALSE(store.get_range("c", "missing", 0, 1).is_ok());
  EXPECT_FALSE(store.get_range("nope", "k", 0, 1).is_ok());
}

TEST(MemoryStoreRange, PutRangePatchesInPlace) {
  MemoryStore store;
  store.create("c");
  store.put("c", "k", common::bytes_of("0123456789"));
  ASSERT_TRUE(store.put_range("c", "k", 3, common::bytes_of("XYZ")).is_ok());
  EXPECT_EQ(common::to_string(store.get("c", "k").value()), "012XYZ6789");
  // Size unchanged; stored_bytes unchanged.
  EXPECT_EQ(store.stored_bytes(), 10u);
}

TEST(MemoryStoreRange, PutRangeCannotGrowOrCreate) {
  MemoryStore store;
  store.create("c");
  store.put("c", "k", common::bytes_of("abc"));
  EXPECT_FALSE(store.put_range("c", "k", 2, common::bytes_of("xy")).is_ok());
  EXPECT_FALSE(store.put_range("c", "new", 0, common::bytes_of("x")).is_ok());
}

TEST(ProviderRange, LatencyScalesWithRangeNotObject) {
  ProviderConfig config;
  config.name = "T";
  config.latency = LatencyParams{.jitter_sigma = 0.0};
  SimProvider provider(config, 1);
  provider.create("c");
  provider.put({"c", "k"}, common::patterned(4 << 20, 1));

  auto full = provider.get({"c", "k"});
  auto range = provider.get_range({"c", "k"}, 100, 4096);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.data.size(), 4096u);
  EXPECT_LT(range.latency, full.latency / 10);
}

TEST(ProviderRange, BillingChargesTransferredBytesOnly) {
  ProviderConfig config;
  config.name = "T";
  config.prices.data_out_gb = 1.0;
  SimProvider provider(config, 1);
  provider.create("c");
  provider.put({"c", "k"}, common::patterned(1'000'000, 1));

  provider.get_range({"c", "k"}, 0, 1000);
  provider.put_range({"c", "k"}, 0, common::patterned(500, 2));
  auto bill = provider.close_month();
  EXPECT_EQ(bill.bytes_out, 1000u);
  EXPECT_EQ(bill.bytes_in, 1'000'000u + 500u);
  EXPECT_EQ(bill.get_class_txns, 1u);
  EXPECT_EQ(bill.put_class_txns, 3u);  // create + put + put_range
}

TEST(ProviderRange, OfflineRejectsRangeOps) {
  ProviderConfig config;
  config.name = "T";
  SimProvider provider(config, 1);
  provider.create("c");
  provider.put({"c", "k"}, common::patterned(100, 1));
  provider.set_online(false);
  EXPECT_EQ(provider.get_range({"c", "k"}, 0, 10).status.code(),
            common::StatusCode::kUnavailable);
  EXPECT_EQ(provider.put_range({"c", "k"}, 0, common::patterned(10, 2))
                .status.code(),
            common::StatusCode::kUnavailable);
}

TEST(ProviderRange, CountersIncludeRangeOps) {
  ProviderConfig config;
  config.name = "T";
  SimProvider provider(config, 1);
  provider.create("c");
  provider.put({"c", "k"}, common::patterned(100, 1));
  provider.reset_counters();
  provider.get_range({"c", "k"}, 0, 10);
  provider.put_range({"c", "k"}, 0, common::patterned(10, 2));
  const auto counters = provider.counters();
  EXPECT_EQ(counters.gets, 1u);
  EXPECT_EQ(counters.puts, 1u);
  EXPECT_EQ(counters.bytes_read, 10u);
  EXPECT_EQ(counters.bytes_written, 10u);
}

}  // namespace
}  // namespace hyrd::cloud
