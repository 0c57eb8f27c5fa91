// Object striping: splits a byte object into k equally sized data shards
// (zero padded), pairs them with parity from a codec, and reassembles the
// original object from any k surviving shards.
//
// A StripeSet is what the distribution layer actually ships to providers:
// shard i of an object goes to provider (placement[i]).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "common/status.h"
#include "erasure/reed_solomon.h"

namespace hyrd::erasure {

/// Geometry of an erasure-coded object.
struct StripeGeometry {
  std::size_t k = 3;  // data shards
  std::size_t m = 1;  // parity shards (m=1 => RAID5 per the paper)

  [[nodiscard]] std::size_t total() const { return k + m; }
  /// Storage expansion factor n/k (paper §II-B: a rate r=k/n code costs 1/r).
  [[nodiscard]] double expansion() const {
    return static_cast<double>(total()) / static_cast<double>(k);
  }
};

struct StripeSet {
  StripeGeometry geometry;
  std::uint64_t object_size = 0;  // pre-padding logical size
  std::size_t shard_size = 0;
  /// k data shards then m parity shards — O(1) slices of one arena
  /// allocation (encode packs data + parity contiguously, then slices).
  std::vector<common::Buffer> shards;
  std::uint32_t object_crc = 0;       // CRC32C of the original object
};

/// CRCs of one data shard from a single pass: the object bytes it carries
/// are hashed first, then the zero padding is chained on.
struct ShardCrc {
  std::uint32_t object = 0;  // CRC32C of the shard's object bytes
  std::uint32_t shard = 0;   // CRC32C of the whole (padded) shard
};

class Striper {
 public:
  explicit Striper(StripeGeometry geometry);

  [[nodiscard]] const StripeGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const ReedSolomon& codec() const { return codec_; }

  /// Splits + encodes an object into one arena allocation sliced
  /// per-shard. Objects smaller than k bytes still work (shards are zero
  /// padded); empty objects produce 1-byte shards so every provider slot
  /// stores a real fragment.
  [[nodiscard]] StripeSet encode(common::ByteSpan object) const;

  /// Reassembles the original object from a full shard set. When the data
  /// shards are adjacent views of one block (the common case: slices of
  /// the writer's arena read back from the store), this is O(1) — no
  /// gather-copy at all; otherwise the k shards gather into one fresh
  /// allocation.
  [[nodiscard]] common::Result<common::Buffer> decode(
      const StripeSet& set) const;

  /// Reassembly straight from read-path fragments (any of the `total()`
  /// slots may be missing). With all k data shards present this is
  /// decode()'s zero-copy/gather path; otherwise missing shards are
  /// reconstructed first (any k suffice). CRC-checks the object.
  ///
  /// `data_crcs` is empty, or holds the ShardCrc::object value of each of
  /// the k data shards, computed from those very bytes while verifying
  /// them. When all k data shards are present the object CRC is then
  /// derived from them with crc32c_combine instead of re-hashing the
  /// joined object — the same check, since the object is exactly their
  /// concatenation. Reconstructed objects are always re-hashed.
  [[nodiscard]] common::Result<common::Buffer> assemble(
      std::uint64_t object_size, std::uint32_t crc,
      std::vector<std::optional<common::Buffer>> shards,
      std::span<const std::uint32_t> data_crcs = {}) const;

  /// Degraded decode: reconstructs missing shards first (any k suffice),
  /// then reassembles and CRC-checks the object.
  [[nodiscard]] common::Result<common::Buffer> decode_degraded(
      StripeGeometry geometry, std::uint64_t object_size, std::uint32_t crc,
      std::vector<std::optional<common::Bytes>> shards) const;

  /// Shard size implied by an object size under this geometry.
  [[nodiscard]] std::size_t shard_size_for(std::uint64_t object_size) const;

  /// Object bytes carried by data shard `index` (the rest is padding).
  [[nodiscard]] static std::size_t object_bytes_in(std::size_t index,
                                                   std::uint64_t object_size,
                                                   std::size_t shard_size);

  /// One cache-resident pass over a stripe: fills `parity` (zero-filled,
  /// sized like the data shards) with the codec's parity and hashes every
  /// fragment. The shards are walked in chunks small enough to stay in L1/
  /// L2: each chunk is encoded, then every data and parity fragment's CRC
  /// chains over it, so each data byte is fetched from memory once.
  /// Returns k + m ShardCrc in code order: data shard i's chain is split
  /// at `object_bytes[i]` (as data_shard_crc does); a parity entry's
  /// `object` equals its `shard`.
  [[nodiscard]] std::vector<ShardCrc> encode_with_crcs(
      std::span<const common::ByteSpan> data,
      std::span<const std::size_t> object_bytes,
      std::span<const common::MutByteSpan> parity) const;

  /// Hashes a data shard once, yielding both of its ShardCrc values.
  /// `object_bytes` must not exceed the shard's size.
  [[nodiscard]] static ShardCrc data_shard_crc(common::ByteSpan shard,
                                               std::size_t object_bytes);

  /// CRC32C of the object, combined from its data shards' ShardCrc::object
  /// values in shard order — no byte is read.
  [[nodiscard]] static std::uint32_t object_crc_from(
      std::span<const std::uint32_t> data_crcs, std::uint64_t object_size,
      std::size_t shard_size);

 private:
  /// Joins the k data shards of `set` into the object and checks it
  /// against set.object_crc: derived from `data_crcs` when given (k
  /// entries), otherwise by hashing the joined object.
  [[nodiscard]] common::Result<common::Buffer> join_checked(
      const StripeSet& set, std::span<const std::uint32_t> data_crcs) const;

  StripeGeometry geometry_;
  ReedSolomon codec_;
};

}  // namespace hyrd::erasure
