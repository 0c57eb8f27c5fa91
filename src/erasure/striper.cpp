#include "erasure/striper.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/copy_meter.h"

namespace hyrd::erasure {

Striper::Striper(StripeGeometry geometry)
    : geometry_(geometry), codec_(geometry.k, geometry.m) {}

std::size_t Striper::shard_size_for(std::uint64_t object_size) const {
  const std::uint64_t k = geometry_.k;
  const std::uint64_t size = std::max<std::uint64_t>(object_size, 1);
  return static_cast<std::size_t>((size + k - 1) / k);
}

StripeSet Striper::encode(common::ByteSpan object) const {
  StripeSet set;
  set.geometry = geometry_;
  set.object_size = object.size();
  set.shard_size = shard_size_for(object.size());
  set.object_crc = common::crc32c(object);

  // One arena for the whole stripe: [k data shards | m parity shards],
  // zero-initialised so the tail shard is already padded. Parity is
  // encoded straight into its arena region, then the arena is frozen and
  // sliced per shard — every shard is a view, not an allocation.
  const std::size_t total = geometry_.total();
  common::MutableBuffer arena(total * set.shard_size);
  arena.write(0, object);

  std::vector<common::ByteSpan> data_views(geometry_.k);
  for (std::size_t i = 0; i < geometry_.k; ++i) {
    data_views[i] = arena.span(i * set.shard_size, set.shard_size);
  }
  std::vector<common::MutByteSpan> parity_views(geometry_.m);
  for (std::size_t p = 0; p < geometry_.m; ++p) {
    parity_views[p] = arena.span((geometry_.k + p) * set.shard_size,
                                 set.shard_size);
  }
  const auto st = codec_.encode_into(data_views, parity_views);
  assert(st.is_ok());
  (void)st;

  common::Buffer frozen = std::move(arena).freeze();
  set.shards.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    set.shards.push_back(frozen.slice(i * set.shard_size, set.shard_size));
  }
  return set;
}

std::size_t Striper::object_bytes_in(std::size_t index,
                                     std::uint64_t object_size,
                                     std::size_t shard_size) {
  const std::uint64_t offset = static_cast<std::uint64_t>(index) * shard_size;
  if (offset >= object_size) return 0;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(object_size - offset, shard_size));
}

std::vector<ShardCrc> Striper::encode_with_crcs(
    std::span<const common::ByteSpan> data,
    std::span<const std::size_t> object_bytes,
    std::span<const common::MutByteSpan> parity) const {
  // 4 KiB measured best on the stripe pass (BM_StripePass): the chunk of
  // every shard plus parity stays in L1 while the CRCs re-read it.
  constexpr std::size_t kChunk = 4 * 1024;
  const std::size_t k = geometry_.k;
  const std::size_t m = geometry_.m;
  assert(data.size() == k && object_bytes.size() == k && parity.size() == m);
  const std::size_t shard_size = data[0].size();
  std::vector<ShardCrc> crcs(k + m);
  std::vector<common::ByteSpan> data_chunks(k);
  std::vector<common::MutByteSpan> parity_chunks(m);
  for (std::size_t off = 0; off < shard_size; off += kChunk) {
    const std::size_t len = std::min(kChunk, shard_size - off);
    for (std::size_t i = 0; i < k; ++i) {
      data_chunks[i] = data[i].subspan(off, len);
    }
    for (std::size_t p = 0; p < m; ++p) {
      parity_chunks[p] = parity[p].subspan(off, len);
    }
    const auto st = codec_.encode_into(data_chunks, parity_chunks);
    assert(st.is_ok());
    (void)st;
    for (std::size_t i = 0; i < k; ++i) {
      // A data shard's object bytes are hashed first; the chain's value
      // where they end is the shard's object CRC, and the padding chains
      // on from there.
      const common::ByteSpan chunk = data_chunks[i];
      ShardCrc& crc = crcs[i];
      const std::size_t split = object_bytes[i];
      if (off < split && split < off + len) {
        crc.object = common::crc32c(chunk.first(split - off), crc.shard);
        crc.shard = common::crc32c(chunk.subspan(split - off), crc.object);
      } else {
        crc.shard = common::crc32c(chunk, crc.shard);
        if (off + len == split) crc.object = crc.shard;
      }
    }
    for (std::size_t p = 0; p < m; ++p) {
      crcs[k + p].shard = common::crc32c(parity_chunks[p], crcs[k + p].shard);
    }
  }
  for (std::size_t p = 0; p < m; ++p) crcs[k + p].object = crcs[k + p].shard;
  return crcs;
}

ShardCrc Striper::data_shard_crc(common::ByteSpan shard,
                                 std::size_t object_bytes) {
  assert(object_bytes <= shard.size());
  ShardCrc out;
  out.object = common::crc32c(shard.first(object_bytes));
  out.shard = object_bytes == shard.size()
                  ? out.object
                  : common::crc32c(shard.subspan(object_bytes), out.object);
  return out;
}

std::uint32_t Striper::object_crc_from(std::span<const std::uint32_t> data_crcs,
                                       std::uint64_t object_size,
                                       std::size_t shard_size) {
  std::uint32_t crc = 0;  // crc32c of the empty prefix
  for (std::size_t i = 0; i < data_crcs.size(); ++i) {
    crc = common::crc32c_combine(crc, data_crcs[i],
                                 object_bytes_in(i, object_size, shard_size));
  }
  return crc;
}

common::Result<common::Buffer> Striper::decode(const StripeSet& set) const {
  if (set.shards.size() != geometry_.total()) {
    return common::invalid_argument("stripe set has wrong shard count");
  }
  return join_checked(set, {});
}

common::Result<common::Buffer> Striper::join_checked(
    const StripeSet& set, std::span<const std::uint32_t> data_crcs) const {
  const std::span<const common::Buffer> data_shards(set.shards.data(),
                                                    geometry_.k);
  common::Buffer object;
  if (auto joined = common::Buffer::join_contiguous(
          data_shards, static_cast<std::size_t>(set.object_size))) {
    // Fast path: the data shards are adjacent views of one block (slices
    // of an encode arena, or fragments a store handed back by reference) —
    // reassembly is a refbump.
    object = *std::move(joined);
  } else {
    common::MutableBuffer gather(static_cast<std::size_t>(set.object_size));
    std::size_t filled = 0;
    for (std::size_t i = 0;
         i < geometry_.k && filled < set.object_size; ++i) {
      const std::size_t remaining =
          static_cast<std::size_t>(set.object_size) - filled;
      const std::size_t take = std::min(set.shards[i].size(), remaining);
      gather.write(filled, set.shards[i].span().first(take));
      filled += take;
    }
    object = std::move(gather).freeze();
  }
  // 0 is the "digest unknown" sentinel (e.g. after an in-place RMW update,
  // which invalidates the whole-object CRC without recomputing it).
  if (set.object_crc != 0) {
    const std::uint32_t got =
        data_crcs.empty()
            ? common::crc32c(object)
            : object_crc_from(data_crcs, set.object_size, set.shard_size);
    if (got != set.object_crc) {
      return common::data_loss("object CRC mismatch after reassembly");
    }
  }
  return object;
}

common::Result<common::Buffer> Striper::assemble(
    std::uint64_t object_size, std::uint32_t crc,
    std::vector<std::optional<common::Buffer>> shards,
    std::span<const std::uint32_t> data_crcs) const {
  if (shards.size() != geometry_.total()) {
    return common::invalid_argument("wrong fragment slot count");
  }
  if (!data_crcs.empty() && data_crcs.size() != geometry_.k) {
    return common::invalid_argument("need one CRC per data fragment");
  }
  bool have_all_data = true;
  for (std::size_t i = 0; i < geometry_.k; ++i) {
    if (!shards[i].has_value()) {
      have_all_data = false;
      break;
    }
  }
  StripeSet set;
  set.geometry = geometry_;
  set.object_size = object_size;
  set.object_crc = crc;
  if (have_all_data) {
    set.shard_size = shards[0]->size();
    set.shards.reserve(shards.size());
    for (auto& s : shards) {
      // Parity slots may be absent on this path; decode() only touches the
      // first k, so fill gaps with empty placeholders.
      set.shards.push_back(s.has_value() ? *std::move(s) : common::Buffer());
    }
    return join_checked(set, data_crcs);
  }
  // Degraded: reconstruction mutates shards in place, so the codec works
  // on owned vectors (each survivor is copied out of its shared block).
  std::vector<std::optional<common::Bytes>> owned(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].has_value()) owned[i] = std::move(*shards[i]).into_bytes();
  }
  return decode_degraded(geometry_, object_size, crc, std::move(owned));
}

common::Result<common::Buffer> Striper::decode_degraded(
    StripeGeometry geometry, std::uint64_t object_size, std::uint32_t crc,
    std::vector<std::optional<common::Bytes>> shards) const {
  if (geometry.k != geometry_.k || geometry.m != geometry_.m) {
    return common::invalid_argument("geometry mismatch");
  }
  if (auto st = codec_.reconstruct(shards); !st.is_ok()) {
    return st;
  }
  StripeSet set;
  set.geometry = geometry;
  set.object_size = object_size;
  set.object_crc = crc;
  set.shards.reserve(shards.size());
  for (auto& s : shards) {
    set.shards.push_back(common::Buffer::from(std::move(*s)));
  }
  set.shard_size = set.shards[0].size();
  return decode(set);
}

}  // namespace hyrd::erasure
