#include "erasure/raid5.h"

#include <cassert>

#include "erasure/gf256.h"

namespace hyrd::erasure {

namespace {

// dst ^= XOR of every shard, through GF256's fused all-ones-row kernel
// (one pass over dst, every source folded in per word).
void xor_accumulate(common::MutByteSpan dst,
                    std::span<const common::ByteSpan> shards) {
  const std::vector<std::uint8_t> ones(shards.size(), 1);
  GF256::instance().mul_add_region_multi(dst, shards, ones.data());
}

}  // namespace

Raid5::Raid5(std::size_t k) : k_(k) { assert(k >= 1); }

common::Result<common::Bytes> Raid5::encode(
    std::span<const common::Bytes> data) const {
  if (data.size() != k_) {
    return common::invalid_argument("RAID5 encode expects k data shards");
  }
  const std::size_t shard_size = data[0].size();
  for (const auto& d : data) {
    if (d.size() != shard_size) {
      return common::invalid_argument("data shards must be equally sized");
    }
  }
  const std::vector<common::ByteSpan> views(data.begin(), data.end());
  common::Bytes parity(shard_size, 0);
  xor_accumulate(parity, views);
  return parity;
}

common::Status Raid5::reconstruct(
    std::vector<std::optional<common::Bytes>>& shards) const {
  if (shards.size() != k_ + 1) {
    return common::invalid_argument("RAID5 reconstruct expects k+1 slots");
  }
  std::size_t missing = shards.size();
  std::size_t missing_count = 0;
  std::size_t shard_size = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].has_value()) {
      missing = i;
      ++missing_count;
    } else {
      shard_size = shards[i]->size();
    }
  }
  if (missing_count == 0) return common::Status::ok();
  if (missing_count > 1) {
    return common::data_loss("RAID5 tolerates a single missing shard");
  }
  std::vector<common::ByteSpan> survivors;
  survivors.reserve(k_);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i == missing) continue;
    if (shards[i]->size() != shard_size) {
      return common::invalid_argument("present shards differ in size");
    }
    survivors.emplace_back(*shards[i]);
  }
  common::Bytes out(shard_size, 0);
  xor_accumulate(out, survivors);
  shards[missing] = std::move(out);
  return common::Status::ok();
}

common::Bytes Raid5::delta_parity(common::ByteSpan old_parity,
                                  common::ByteSpan old_data,
                                  common::ByteSpan new_data) {
  assert(old_parity.size() == old_data.size() &&
         old_data.size() == new_data.size());
  common::Bytes out(old_parity.begin(), old_parity.end());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] ^= old_data[i] ^ new_data[i];
  }
  return out;
}

bool Raid5::verify(std::span<const common::Bytes> shards) const {
  if (shards.size() != k_ + 1) return false;
  auto parity = encode(shards.subspan(0, k_));
  return parity.is_ok() && parity.value() == shards[k_];
}

}  // namespace hyrd::erasure
