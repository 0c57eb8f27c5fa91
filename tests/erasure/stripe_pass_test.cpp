#include <gtest/gtest.h>

#include <vector>

#include "cloud/profiles.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "dist/erasure_scheme.h"
#include "erasure/reed_solomon.h"
#include "erasure/striper.h"

namespace hyrd::erasure {
namespace {

constexpr std::size_t kPassChunk = 4096;  // Striper::encode_with_crcs' chunk

const StripeGeometry kGeometries[] = {{2, 1}, {3, 1}, {4, 2}};

/// Object sizes that put a chunk edge, a shard edge or the padding split
/// one byte either side of each other, plus the empty object and 2 MiB.
std::vector<std::uint64_t> sizes_for(std::size_t k) {
  std::vector<std::uint64_t> sizes = {0, 1, 2ull << 20};
  for (const std::uint64_t base :
       {std::uint64_t{kPassChunk}, std::uint64_t{k * kPassChunk},
        std::uint64_t{k * 3 * kPassChunk}, std::uint64_t{10000},
        std::uint64_t{(k - 1) * 10000}}) {
    for (const std::uint64_t d : {0ull, 1ull, 2ull}) {
      if (base + d >= 1) sizes.push_back(base + d - 1);
    }
  }
  return sizes;
}

TEST(StripePass, MatchesCodecAndPerFragmentHashes) {
  for (const StripeGeometry g : kGeometries) {
    const Striper striper(g);
    const ReedSolomon rs(g.k, g.m);
    for (const std::uint64_t size : sizes_for(g.k)) {
      const common::Bytes object = common::patterned(size, size + g.k);
      const std::size_t shard = striper.shard_size_for(size);
      std::vector<common::Bytes> data(g.k, common::Bytes(shard, 0));
      std::vector<std::size_t> object_bytes(g.k);
      for (std::size_t i = 0; i < g.k; ++i) {
        object_bytes[i] = Striper::object_bytes_in(i, size, shard);
        std::copy_n(object.begin() + static_cast<std::ptrdiff_t>(i * shard),
                    object_bytes[i], data[i].begin());
      }
      std::vector<common::Bytes> parity(g.m, common::Bytes(shard, 0));
      const std::vector<common::ByteSpan> data_views(data.begin(), data.end());
      const std::vector<common::MutByteSpan> parity_views(parity.begin(),
                                                          parity.end());
      const auto crcs =
          striper.encode_with_crcs(data_views, object_bytes, parity_views);

      const auto expected = rs.encode(data);
      ASSERT_TRUE(expected.is_ok());
      ASSERT_EQ(crcs.size(), g.total());
      for (std::size_t p = 0; p < g.m; ++p) {
        ASSERT_EQ(parity[p], expected.value()[p])
            << "k=" << g.k << " m=" << g.m << " size=" << size << " p=" << p;
        EXPECT_EQ(crcs[g.k + p].shard, common::crc32c(parity[p]));
        EXPECT_EQ(crcs[g.k + p].object, crcs[g.k + p].shard);
      }
      std::vector<std::uint32_t> object_crcs;
      for (std::size_t i = 0; i < g.k; ++i) {
        EXPECT_EQ(crcs[i].shard, common::crc32c(data[i]))
            << "k=" << g.k << " size=" << size << " shard=" << i;
        EXPECT_EQ(crcs[i].object,
                  common::crc32c(common::ByteSpan(data[i]).first(
                      object_bytes[i])))
            << "k=" << g.k << " size=" << size << " shard=" << i;
        object_crcs.push_back(crcs[i].object);
      }
      EXPECT_EQ(Striper::object_crc_from(object_crcs, size, shard),
                common::crc32c(object))
          << "k=" << g.k << " size=" << size;
    }
  }
}

TEST(StripePass, SchemeWriteRecordsFragmentAndObjectHashes) {
  for (const StripeGeometry g : kGeometries) {
    cloud::CloudRegistry registry;
    cloud::install_standard_four(registry, 23);
    gcs::MultiCloudSession session(registry);
    session.ensure_container_everywhere("data");
    const dist::ErasureScheme scheme("data", g);
    const std::size_t four[] = {
        session.index_of("Rackspace"), session.index_of("Aliyun"),
        session.index_of("WindowsAzure"), session.index_of("AmazonS3")};
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < g.total(); ++i) slots.push_back(four[i % 4]);
    for (const std::uint64_t size : sizes_for(g.k)) {
      const std::string path = "/p" + std::to_string(size);
      const common::Bytes object = common::patterned(size, size ^ g.k);
      const auto w = scheme.write(session, path, object, slots);
      ASSERT_TRUE(w.status.is_ok()) << "k=" << g.k << " size=" << size;
      EXPECT_EQ(w.meta.crc, common::crc32c(object))
          << "k=" << g.k << " size=" << size;
      ASSERT_EQ(w.meta.fragment_crcs.size(), g.total());
      for (std::size_t i = 0; i < g.total(); ++i) {
        auto* provider = registry.find(w.meta.locations[i].provider);
        const auto stored =
            provider->raw_store().get("data", w.meta.locations[i].object_name);
        ASSERT_TRUE(stored.is_ok());
        EXPECT_EQ(w.meta.fragment_crcs[i], common::crc32c(stored.value()))
            << "k=" << g.k << " size=" << size << " slot=" << i;
      }
      const auto r = scheme.read(session, w.meta);
      ASSERT_TRUE(r.status.is_ok()) << "k=" << g.k << " size=" << size;
      EXPECT_EQ(r.data.to_bytes(), object) << "k=" << g.k << " size=" << size;
    }
  }
}

}  // namespace
}  // namespace hyrd::erasure
