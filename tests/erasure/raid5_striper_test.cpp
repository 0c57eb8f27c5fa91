#include <gtest/gtest.h>

#include "common/rng.h"
#include "erasure/raid5.h"
#include "erasure/striper.h"

namespace hyrd::erasure {
namespace {

std::vector<common::Bytes> make_shards(std::size_t k, std::size_t shard_size,
                                       std::uint64_t seed) {
  std::vector<common::Bytes> shards;
  for (std::size_t i = 0; i < k; ++i) {
    shards.push_back(common::patterned(shard_size, seed + i));
  }
  return shards;
}

TEST(Raid5, ParityIsXorOfData) {
  Raid5 raid(3);
  auto data = make_shards(3, 32, 1);
  auto parity = raid.encode(data);
  ASSERT_TRUE(parity.is_ok());
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(parity.value()[i], data[0][i] ^ data[1][i] ^ data[2][i]);
  }
}

TEST(Raid5, ReconstructEachPossibleSingleLoss) {
  Raid5 raid(4);
  auto data = make_shards(4, 64, 2);
  auto parity = raid.encode(data);
  ASSERT_TRUE(parity.is_ok());
  std::vector<common::Bytes> all = data;
  all.push_back(parity.value());

  for (std::size_t missing = 0; missing < 5; ++missing) {
    std::vector<std::optional<common::Bytes>> shards(5);
    for (std::size_t i = 0; i < 5; ++i) {
      if (i != missing) shards[i] = all[i];
    }
    ASSERT_TRUE(raid.reconstruct(shards).is_ok()) << "missing=" << missing;
    EXPECT_EQ(*shards[missing], all[missing]);
  }
}

TEST(Raid5, ReconstructWithNothingMissingIsOk) {
  Raid5 raid(2);
  auto data = make_shards(2, 8, 3);
  auto parity = raid.encode(data);
  std::vector<std::optional<common::Bytes>> shards = {data[0], data[1],
                                                      parity.value()};
  EXPECT_TRUE(raid.reconstruct(shards).is_ok());
}

TEST(Raid5, TwoMissingIsDataLoss) {
  Raid5 raid(3);
  std::vector<std::optional<common::Bytes>> shards(4);
  shards[0] = common::patterned(8, 0);
  shards[1] = common::patterned(8, 1);
  EXPECT_EQ(raid.reconstruct(shards).code(), common::StatusCode::kDataLoss);
}

TEST(Raid5, DeltaParityMatchesFullReencode) {
  Raid5 raid(3);
  auto data = make_shards(3, 48, 4);
  auto old_parity = raid.encode(data);
  ASSERT_TRUE(old_parity.is_ok());

  common::Bytes new_data = common::patterned(48, 999);
  const common::Bytes patched =
      Raid5::delta_parity(old_parity.value(), data[1], new_data);

  data[1] = new_data;
  auto expected = raid.encode(data);
  ASSERT_TRUE(expected.is_ok());
  EXPECT_EQ(patched, expected.value());
}

TEST(Raid5, VerifyDetectsCorruption) {
  Raid5 raid(2);
  auto data = make_shards(2, 16, 5);
  auto parity = raid.encode(data);
  std::vector<common::Bytes> all = {data[0], data[1], parity.value()};
  EXPECT_TRUE(raid.verify(all));
  all[0][0] ^= 1;
  EXPECT_FALSE(raid.verify(all));
}

TEST(Raid5, AgreesWithReedSolomonM1OnXorParity) {
  // RS(k,1) built from the Cauchy generator is not necessarily plain XOR,
  // but both must satisfy: any k of k+1 shards reconstruct the data.
  // Here we just confirm Raid5's parity equals the XOR invariant that the
  // RAID5 small-update formula (delta_parity) relies on.
  Raid5 raid(5);
  auto data = make_shards(5, 16, 6);
  auto parity = raid.encode(data);
  ASSERT_TRUE(parity.is_ok());
  common::Bytes x(16, 0);
  for (const auto& d : data) {
    for (std::size_t i = 0; i < 16; ++i) x[i] ^= d[i];
  }
  EXPECT_EQ(parity.value(), x);
}

// ---------- Striper ----------

class StriperSizeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StriperSizeTest, EncodeDecodeRoundTrip) {
  const std::uint64_t size = GetParam();
  Striper striper({.k = 3, .m = 1});
  const common::Bytes object = common::patterned(size, size * 31 + 7);
  const StripeSet set = striper.encode(object);
  EXPECT_EQ(set.object_size, size);
  EXPECT_EQ(set.shards.size(), 4u);
  auto decoded = striper.decode(set);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), object);
}

TEST_P(StriperSizeTest, DegradedDecodeFromAnyKSurvivors) {
  const std::uint64_t size = GetParam();
  Striper striper({.k = 3, .m = 1});
  const common::Bytes object = common::patterned(size, size + 1);
  const StripeSet set = striper.encode(object);

  for (std::size_t missing = 0; missing < 4; ++missing) {
    std::vector<std::optional<common::Bytes>> shards(4);
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != missing) shards[i] = set.shards[i].to_bytes();
    }
    auto decoded = striper.decode_degraded(set.geometry, set.object_size,
                                           set.object_crc, std::move(shards));
    ASSERT_TRUE(decoded.is_ok()) << "missing=" << missing;
    EXPECT_EQ(decoded.value(), object);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StriperSizeTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 100, 1023, 1024,
                                           1025, 4096, 65536, 1 << 20,
                                           (1 << 20) + 1, 3u << 20),
                         [](const auto& param_info) {
                           return "size" + std::to_string(param_info.param);
                         });

TEST(Striper, ShardSizeIsCeilDivision) {
  Striper striper({.k = 3, .m = 1});
  EXPECT_EQ(striper.shard_size_for(9), 3u);
  EXPECT_EQ(striper.shard_size_for(10), 4u);
  EXPECT_EQ(striper.shard_size_for(0), 1u);  // empty objects get 1-byte shards
}

TEST(Striper, ExpansionFactor) {
  EXPECT_DOUBLE_EQ((StripeGeometry{.k = 3, .m = 1}).expansion(), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ((StripeGeometry{.k = 4, .m = 2}).expansion(), 1.5);
}

TEST(Striper, DecodeDetectsCorruptObject) {
  Striper striper({.k = 2, .m = 1});
  const common::Bytes object = common::patterned(100, 8);
  StripeSet set = striper.encode(object);
  common::Bytes corrupt = set.shards[0].to_bytes();
  corrupt[5] ^= 0xFF;
  set.shards[0] = common::Buffer::from(std::move(corrupt));
  auto decoded = striper.decode(set);
  EXPECT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::StatusCode::kDataLoss);
}

TEST(Striper, DegradedDecodeGeometryMismatchRejected) {
  Striper striper({.k = 3, .m = 1});
  auto r = striper.decode_degraded({.k = 2, .m = 1}, 10, 0, {});
  EXPECT_FALSE(r.is_ok());
}

TEST(Striper, RsGeometryRoundTrip) {
  Striper striper({.k = 5, .m = 3});
  const common::Bytes object = common::patterned(12345, 3);
  const StripeSet set = striper.encode(object);
  ASSERT_EQ(set.shards.size(), 8u);

  // Lose three shards (the tolerance limit).
  std::vector<std::optional<common::Bytes>> shards(8);
  for (std::size_t i = 0; i < 8; ++i) {
    if (i != 1 && i != 4 && i != 7) shards[i] = set.shards[i].to_bytes();
  }
  auto decoded = striper.decode_degraded(set.geometry, set.object_size,
                                         set.object_crc, std::move(shards));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), object);
}

}  // namespace
}  // namespace hyrd::erasure
