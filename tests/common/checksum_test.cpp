#include "common/checksum.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"

namespace hyrd::common {
namespace {

TEST(Crc32c, KnownVector) {
  // RFC 3720 test vector: CRC32C("123456789") = 0xE3069283.
  const Bytes data = bytes_of("123456789");
  EXPECT_EQ(crc32c(data), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32c, AllZeros32) {
  const Bytes data(32, 0);
  EXPECT_EQ(crc32c(data), 0x8A9136AAu);  // RFC 3720 vector
}

TEST(Crc32c, AllOnes32) {
  const Bytes data(32, 0xFF);
  EXPECT_EQ(crc32c(data), 0x62A8AB43u);  // RFC 3720 vector
}

TEST(Crc32c, DetectsSingleBitFlip) {
  Bytes data = patterned(4096, 7);
  const std::uint32_t clean = crc32c(data);
  data[1234] ^= 0x01;
  EXPECT_NE(crc32c(data), clean);
}

TEST(Crc32c, DifferentSeedsDiffer) {
  const Bytes data = patterned(128, 3);
  EXPECT_NE(crc32c(data, 0), crc32c(data, 1));
}

TEST(Crc32c, Incrementing32) {
  Bytes data(32, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(crc32c(data), 0x46DD794Eu);  // RFC 3720 vector
}

TEST(Crc32c, Decrementing32) {
  Bytes data(32, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc32c(data), 0x113FDB5Cu);  // RFC 3720 vector
}

TEST(Crc32c, ChainingSplitsAnywhere) {
  // crc32c(a+b) == crc32c(b, seed=crc32c(a)) for every split point —
  // the property the stripe pass relies on when it chains each
  // fragment's CRC chunk by chunk.
  const Bytes data = patterned(611, 29);
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    const std::uint32_t head = crc32c(ByteSpan(data.data(), split));
    const std::uint32_t chained =
        crc32c(ByteSpan(data.data() + split, data.size() - split), head);
    EXPECT_EQ(chained, whole) << "split=" << split;
  }
}

TEST(Crc32c, WideMatchesReferenceAllLengths) {
  // The slicing-by-8 / hardware path must agree with the retained
  // bytewise reference for every length and alignment, including the
  // sub-8-byte head and tail cases.
  const Bytes base = patterned(1025 + 8, 41);
  for (const std::size_t off :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    for (std::size_t len = 0; len <= 1025; ++len) {
      const ByteSpan span(base.data() + off, len);
      ASSERT_EQ(crc32c(span), crc32c_reference(span))
          << "off=" << off << " len=" << len;
      ASSERT_EQ(crc32c(span, 0xDEADBEEF), crc32c_reference(span, 0xDEADBEEF))
          << "seeded off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32c, WideMatchesReferenceAroundBlockBoundaries) {
  // The SSE4.2 kernel hashes runs of three 8 KiB blocks, then runs of
  // three 256 B blocks, then single words and bytes. Every length within
  // 8 bytes of a multiple of either run size (768 B and 24 KiB) moves a
  // boundary between those stages; check each against the reference at
  // several alignments and seeds, on every tier (the folding tier hands
  // its tail to the SSE4.2 kernel, and hides it from crc32c() on hosts
  // that run it).
  constexpr std::size_t kShortRun = 3 * 256;
  constexpr std::size_t kLongRun = 3 * 8192;
  std::vector<std::size_t> centres;
  for (std::size_t c = kShortRun; c <= 2 * kLongRun + kShortRun;
       c += kShortRun) {
    centres.push_back(c);
  }
  for (std::size_t c = 3 * kLongRun; c <= 4 * kLongRun; c += kLongRun) {
    centres.push_back(c);
  }
  const Bytes base = patterned(4 * kLongRun + 16, 53);
  for (const std::size_t centre : centres) {
    for (std::size_t len = centre - 8; len <= centre + 8; ++len) {
      for (const std::size_t off :
           {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
        const ByteSpan span(base.data() + off, len);
        for (const std::uint32_t seed : {0u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
          const std::uint32_t want = crc32c_reference(span, seed);
          for (const auto& kernel : detail::crc32c_kernels()) {
            ASSERT_EQ(kernel.fn(span, seed), want)
                << kernel.name << " off=" << off << " len=" << len
                << " seed=" << seed;
          }
        }
      }
    }
  }
}

// Every kernel tier this host can run, checked on its own against the
// bytewise reference: lengths within 8 bytes of each multiple of 256 and
// 512 B (the fold window and the folding tier's threshold), 4 KiB and
// 1 MiB + 7, at several alignments and seeds.
TEST(Crc32cKernels, EveryTierMatchesReference) {
  const auto kernels = detail::crc32c_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front().name, crc32c_kernel_name());
  std::vector<std::size_t> lengths = {4096, (std::size_t{1} << 20) + 7};
  for (std::size_t c = 256; c <= 4096; c += 256) {
    for (std::size_t len = c - 8; len <= c + 8; ++len) lengths.push_back(len);
  }
  const Bytes base = patterned((std::size_t{1} << 20) + 7 + 64, 71);
  for (const auto& kernel : kernels) {
    for (const std::size_t len : lengths) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{7},
                                    std::size_t{63}}) {
        const ByteSpan span(base.data() + off, len);
        for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
          ASSERT_EQ(kernel.fn(span, seed), crc32c_reference(span, seed))
              << kernel.name << " off=" << off << " len=" << len
              << " seed=" << seed;
        }
      }
    }
  }
}

TEST(Crc32cKernels, EveryTierChainsAcrossTheFoldThreshold) {
  // Splits put one or both pieces on either side of 512 B, so a chained
  // call hands a folded register to a short input and back.
  const Bytes data = patterned(3000, 73);
  const std::uint32_t whole = crc32c_reference(data);
  for (const auto& kernel : detail::crc32c_kernels()) {
    for (const std::size_t split :
         {std::size_t{1}, std::size_t{255}, std::size_t{511},
          std::size_t{512}, std::size_t{513}, std::size_t{1024},
          std::size_t{2487}, std::size_t{2488}, std::size_t{2489},
          std::size_t{2999}}) {
      const ByteSpan head(data.data(), split);
      const ByteSpan tail(data.data() + split, data.size() - split);
      EXPECT_EQ(kernel.fn(tail, kernel.fn(head, 0)), whole)
          << kernel.name << " split=" << split;
    }
  }
}

TEST(Crc32cCombine, EqualsCrcOfConcatenation) {
  const Bytes data = patterned((1u << 20) + 4099, 61);
  const std::uint32_t whole = crc32c(data);
  Xoshiro256 rng(7);
  std::vector<std::size_t> splits = {0, 1, data.size() - 1, data.size()};
  for (int i = 0; i < 60; ++i) splits.push_back(rng() % (data.size() + 1));
  for (const std::size_t split : splits) {
    const ByteSpan a(data.data(), split);
    const ByteSpan b(data.data() + split, data.size() - split);
    EXPECT_EQ(crc32c_combine(crc32c(a), crc32c(b), b.size()), whole)
        << "split=" << split;
  }
}

TEST(Crc32cCombine, EmptySuffixIsIdentity) {
  const Bytes data = patterned(777, 5);
  const std::uint32_t crc = crc32c(data);
  EXPECT_EQ(crc32c_combine(crc, crc32c({}), 0), crc);
  EXPECT_EQ(crc32c_combine(0, crc, data.size()), crc);  // empty prefix
}

TEST(Crc32cCombine, SuffixLongerThanOneMiB) {
  // len_b > 1 MiB exercises the high powers of the x^(2^k) table; chaining
  // three pieces checks that combined CRCs combine again.
  const Bytes data = patterned(3 * (1u << 20) + 17, 67);
  const std::size_t cut1 = 100;
  const std::size_t cut2 = cut1 + (1u << 20) + 5;
  const ByteSpan a(data.data(), cut1);
  const ByteSpan b(data.data() + cut1, cut2 - cut1);
  const ByteSpan c(data.data() + cut2, data.size() - cut2);
  ASSERT_GT(c.size(), std::size_t{1} << 20);
  const std::uint32_t ab =
      crc32c_combine(crc32c(a), crc32c(b), b.size());
  EXPECT_EQ(crc32c_combine(ab, crc32c(c), c.size()), crc32c(data));
  EXPECT_EQ(crc32c_combine(crc32c(a),
                           crc32c_combine(crc32c(b), crc32c(c), c.size()),
                           b.size() + c.size()),
            crc32c(data));
}

TEST(Fnv1a, MatchesKnownValues) {
  // Standard FNV-1a 64-bit vectors.
  EXPECT_EQ(fnv1a(std::string_view("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a(std::string_view("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a(std::string_view("foobar")), 0x85944171f73967e8ull);
}

TEST(Fnv1a, BytesAndStringAgree) {
  const std::string s = "hello world";
  EXPECT_EQ(fnv1a(std::string_view(s)), fnv1a(bytes_of(s)));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::digest({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::digest(bytes_of("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(Sha256::digest(
                bytes_of("The quick brown fox jumps over the lazy dog"))
                .hex(),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, TwoBlockMessage) {
  // 56 bytes forces the padding split across two blocks.
  EXPECT_EQ(
      Sha256::digest(bytes_of(
                         "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = patterned(10000, 99);
  Sha256 h;
  // Feed in awkward chunk sizes spanning block boundaries.
  std::size_t offset = 0;
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 1000u, 8807u}) {
    const std::size_t take = std::min(chunk, data.size() - offset);
    h.update(ByteSpan(data.data() + offset, take));
    offset += take;
    if (offset == data.size()) break;
  }
  ASSERT_EQ(offset, data.size());
  EXPECT_EQ(h.finalize().hex(), Sha256::digest(data).hex());
}

TEST(Sha256, MillionAs) {
  const Bytes data(1000000, 'a');
  EXPECT_EQ(Sha256::digest(data).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

}  // namespace
}  // namespace hyrd::common
