#include "core/hyrd_client.h"

#include <gtest/gtest.h>

#include "cloud/profiles.h"

namespace hyrd::core {
namespace {

class HyRDClientTest : public ::testing::Test {
 protected:
  HyRDClientTest() {
    cloud::install_standard_four(registry_, 23);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
    client_ = std::make_unique<HyRDClient>(*session_);
  }

  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
  std::unique_ptr<HyRDClient> client_;
};

TEST_F(HyRDClientTest, DispatcherTargets) {
  // Replicas on the two fastest providers; parity slot on the priciest.
  ASSERT_EQ(client_->replica_targets().size(), 2u);
  EXPECT_EQ(session_->client(client_->replica_targets()[0]).provider_name(),
            "Aliyun");
  EXPECT_EQ(session_->client(client_->replica_targets()[1]).provider_name(),
            "WindowsAzure");
  // Large-file slots: cost-oriented providers only (paper Fig. 2) —
  // Rackspace + Aliyun data, parity on AmazonS3 (most expensive to serve).
  ASSERT_EQ(client_->shard_slots().size(), 3u);
  EXPECT_EQ(session_->client(client_->shard_slots()[0]).provider_name(),
            "Rackspace");
  EXPECT_EQ(session_->client(client_->shard_slots()[1]).provider_name(),
            "Aliyun");
  EXPECT_EQ(session_->client(client_->shard_slots().back()).provider_name(),
            "AmazonS3");
}

TEST_F(HyRDClientTest, SmallFileIsReplicated) {
  const auto data = common::patterned(4096, 1);
  auto w = client_->put("/docs/small.txt", data);
  ASSERT_TRUE(w.status.is_ok());
  EXPECT_EQ(w.meta.redundancy, meta::RedundancyKind::kReplicated);
  EXPECT_EQ(w.meta.locations.size(), 2u);

  auto r = client_->get("/docs/small.txt");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(HyRDClientTest, LargeFileIsErasureCoded) {
  const auto data = common::patterned(4 << 20, 2);
  auto w = client_->put("/media/video.mp4", data);
  ASSERT_TRUE(w.status.is_ok());
  EXPECT_EQ(w.meta.redundancy, meta::RedundancyKind::kErasure);
  EXPECT_EQ(w.meta.locations.size(), 3u);  // k=2 data + 1 parity

  auto r = client_->get("/media/video.mp4");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(HyRDClientTest, ThresholdBoundaryExactlyAt1MB) {
  auto small = client_->put("/a", common::patterned((1 << 20) - 1, 3));
  auto large = client_->put("/b", common::patterned(1 << 20, 4));
  EXPECT_EQ(small.meta.redundancy, meta::RedundancyKind::kReplicated);
  EXPECT_EQ(large.meta.redundancy, meta::RedundancyKind::kErasure);
}

TEST_F(HyRDClientTest, MetadataBlocksLandOnPerformanceProviders) {
  client_->put("/d/f", common::patterned(100, 5));
  // Metadata container objects exist only on Aliyun + Azure.
  auto ali = registry_.find("Aliyun")->list("hyrd-meta");
  ASSERT_TRUE(ali.ok());
  EXPECT_FALSE(ali.names.empty());
  auto s3 = registry_.find("AmazonS3")->list("hyrd-meta");
  ASSERT_TRUE(s3.ok());
  EXPECT_TRUE(s3.names.empty());
}

TEST_F(HyRDClientTest, StatAndList) {
  client_->put("/d/a", common::patterned(10, 6));
  client_->put("/d/b", common::patterned(2 << 20, 7));
  EXPECT_TRUE(client_->stat("/d/a").has_value());
  EXPECT_FALSE(client_->stat("/d/zz").has_value());
  const auto paths = client_->list();
  EXPECT_EQ(paths.size(), 2u);  // synthetic meta paths are hidden
}

TEST_F(HyRDClientTest, GetMissingFileFails) {
  auto r = client_->get("/nope");
  EXPECT_EQ(r.status.code(), common::StatusCode::kNotFound);
}

TEST_F(HyRDClientTest, OverwriteBumpsVersion) {
  client_->put("/f", common::patterned(100, 8));
  auto w2 = client_->put("/f", common::patterned(200, 9));
  ASSERT_TRUE(w2.status.is_ok());
  EXPECT_EQ(w2.meta.version, 2u);
  auto r = client_->get("/f");
  EXPECT_EQ(r.data.size(), 200u);
}

TEST_F(HyRDClientTest, FileCrossingThresholdSwitchesRedundancy) {
  auto small = client_->put("/grow", common::patterned(1000, 10));
  EXPECT_EQ(small.meta.redundancy, meta::RedundancyKind::kReplicated);
  auto big = client_->put("/grow", common::patterned(2 << 20, 11));
  ASSERT_TRUE(big.status.is_ok());
  EXPECT_EQ(big.meta.redundancy, meta::RedundancyKind::kErasure);
  auto r = client_->get("/grow");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data.size(), 2u << 20);

  // Old replicas must be gone: total objects = 3 fragments (k=2 + parity).
  std::uint64_t data_objects = 0;
  for (const auto& p : registry_.all()) {
    auto listing = p->list("hyrd-data");
    if (listing.ok()) data_objects += listing.names.size();
  }
  EXPECT_EQ(data_objects, 3u);
}

TEST_F(HyRDClientTest, ShrinkingBackSwitchesToReplication) {
  client_->put("/shrink", common::patterned(2 << 20, 12));
  auto w = client_->put("/shrink", common::patterned(500, 13));
  ASSERT_TRUE(w.status.is_ok());
  EXPECT_EQ(w.meta.redundancy, meta::RedundancyKind::kReplicated);
  auto r = client_->get("/shrink");
  EXPECT_EQ(r.data.size(), 500u);
}

TEST_F(HyRDClientTest, RemoveDeletesDataAndUpdatesMetadata) {
  client_->put("/d/f", common::patterned(100, 14));
  auto rm = client_->remove("/d/f");
  ASSERT_TRUE(rm.status.is_ok());
  EXPECT_FALSE(client_->stat("/d/f").has_value());
  EXPECT_EQ(client_->get("/d/f").status.code(),
            common::StatusCode::kNotFound);
  for (const auto& p : registry_.all()) {
    auto listing = p->list("hyrd-data");
    if (listing.ok()) {
      EXPECT_TRUE(listing.names.empty()) << p->name();
    }
  }
}

TEST_F(HyRDClientTest, SmallWholeFileUpdateNeedsNoReads) {
  const auto data = common::patterned(8192, 15);
  client_->put("/f", data);
  for (const auto& p : registry_.all()) p->reset_counters();

  auto u = client_->update("/f", 0, common::patterned(8192, 16));
  ASSERT_TRUE(u.status.is_ok());
  std::uint64_t gets = 0;
  for (const auto& p : registry_.all()) gets += p->counters().gets;
  EXPECT_EQ(gets, 0u);  // replication overwrite: zero read amplification
}

TEST_F(HyRDClientTest, LargeFileSmallUpdateUsesRmw) {
  client_->put("/big", common::patterned(6 << 20, 17));
  for (const auto& p : registry_.all()) p->reset_counters();

  auto u = client_->update("/big", 42, common::patterned(4096, 18));
  ASSERT_TRUE(u.status.is_ok());
  std::uint64_t gets = 0, data_puts = 0;
  for (const auto& p : registry_.all()) {
    gets += p->counters().gets;
    data_puts += p->counters().puts;
  }
  EXPECT_EQ(gets, 2u);  // old fragment + parity
  // 2 fragment writes + 2 metadata-block replica writes.
  EXPECT_EQ(data_puts, 4u);

  auto r = client_->get("/big");
  ASSERT_TRUE(r.status.is_ok());
  common::Bytes expected = common::patterned(6 << 20, 17);
  const auto patch = common::patterned(4096, 18);
  std::copy(patch.begin(), patch.end(), expected.begin() + 42);
  EXPECT_EQ(r.data, expected);
}

TEST_F(HyRDClientTest, UpdateCannotGrowFile) {
  client_->put("/f", common::patterned(100, 19));
  auto u = client_->update("/f", 90, common::patterned(20, 20));
  EXPECT_EQ(u.status.code(), common::StatusCode::kInvalidArgument);
}

TEST_F(HyRDClientTest, StatsTrackOperations) {
  client_->put("/f", common::patterned(100, 21));
  client_->get("/f");
  client_->get("/f");
  const auto stats = client_->stats_snapshot();
  EXPECT_EQ(stats.put_ms.count(), 1u);
  EXPECT_EQ(stats.get_ms.count(), 2u);
  EXPECT_GT(stats.mean_op_ms(), 0.0);
  client_->reset_stats();
  EXPECT_EQ(client_->stats_snapshot().put_ms.count(), 0u);
}

TEST_F(HyRDClientTest, HotPromotionCreatesFastCopy) {
  HyRDConfig config;
  config.hot_promotion_enabled = true;
  config.hot_promotion_reads = 3;
  // Fresh fleet to avoid interference.
  cloud::CloudRegistry reg;
  cloud::install_standard_four(reg, 31);
  gcs::MultiCloudSession session(reg);
  HyRDClient client(session, config);

  const auto data = common::patterned(4 << 20, 22);
  client.put("/hot", data);
  EXPECT_FALSE(client.has_hot_copy("/hot"));
  common::SimDuration normal_latency = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = client.get("/hot");
    ASSERT_TRUE(r.status.is_ok());
    normal_latency = r.latency;
  }
  EXPECT_TRUE(client.has_hot_copy("/hot"));

  // The dispatcher picks hot copy vs stripe by expected latency; either
  // way the data must be exact.
  auto r = client.get("/hot");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);

  // The hot copy's availability value: when the stripe itself becomes
  // unreachable (two of its three slots down — beyond RAID5 tolerance),
  // the promoted copy on the fast provider still serves the read.
  reg.find("Rackspace")->set_online(false);  // data slot 0
  reg.find("AmazonS3")->set_online(false);   // parity slot
  auto hot_read = client.get("/hot");
  ASSERT_TRUE(hot_read.status.is_ok());
  EXPECT_EQ(hot_read.data, data);
  EXPECT_LT(hot_read.latency, normal_latency * 3);
  reg.find("Rackspace")->set_online(true);
  reg.find("AmazonS3")->set_online(true);

  // Overwriting invalidates the hot copy.
  client.put("/hot", common::patterned(4 << 20, 23));
  EXPECT_FALSE(client.has_hot_copy("/hot"));
}

TEST_F(HyRDClientTest, MetadataRebuildFromCloud) {
  client_->put("/d1/a", common::patterned(100, 24));
  client_->put("/d1/b", common::patterned(3 << 20, 25));
  client_->put("/d2/c", common::patterned(50, 26));

  // Simulate client machine loss: new client, same fleet.
  HyRDClient fresh(*session_);
  EXPECT_TRUE(fresh.list().empty());
  ASSERT_TRUE(fresh.rebuild_metadata_from_cloud().is_ok());
  EXPECT_EQ(fresh.list().size(), 3u);
  auto r = fresh.get("/d1/b");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, common::patterned(3 << 20, 25));
}

}  // namespace
}  // namespace hyrd::core
