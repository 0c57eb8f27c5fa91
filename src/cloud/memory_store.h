// Thread-safe in-memory object store: the durable state behind a simulated
// provider. Latency/billing live in SimProvider; this class only stores.
//
// Two hot-path properties (DESIGN.md §9):
//  * Objects are held as ref-counted `Buffer`s, so get/get_range are a
//    refcount bump + O(1) slice — no memcpy under any lock — and put keeps
//    the caller's buffer by reference when it is owning (borrowed spans
//    are deep-copied before the lock is taken).
//  * Containers are sharded across kShards stripes keyed by the
//    container-name hash, so concurrent ops on different containers (and
//    every op against *other* shards) never contend on one global mutex.
//    Each shard is a robin-hood table of containers, each container one of
//    objects (common/robin_hood_map.h); list() sorts, as they are unordered.
//    stored_bytes_ is a relaxed atomic: it counts *logical* bytes — what a
//    provider would bill — not physical residency, which is per unique
//    block shared by however many fragments slice it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/robin_hood_map.h"
#include "common/status.h"

namespace hyrd::cloud {

class MemoryStore {
 public:
  common::Status create(const std::string& container);

  /// Stores `data`. Owning buffers are kept by refbump (zero-copy);
  /// borrowed ones are deep-copied (outside the shard lock).
  common::Status put(const std::string& container, const std::string& name,
                     common::Buffer data);
  common::Status put(const std::string& container, const std::string& name,
                     common::ByteSpan data) {
    return put(container, name, common::Buffer::borrow(data));
  }

  /// Refcount bump: the returned Buffer aliases the stored block.
  common::Result<common::Buffer> get(const std::string& container,
                                     const std::string& name) const;

  /// Byte-range read ([offset, offset+length) must lie inside the object):
  /// an O(1) slice of the stored block.
  common::Result<common::Buffer> get_range(const std::string& container,
                                           const std::string& name,
                                           std::uint64_t offset,
                                           std::uint64_t length) const;

  /// Byte-range overwrite of an existing object (must not grow it). Models
  /// a block write in a block-chunked object layout (see DESIGN.md §2).
  /// Copy-on-write: if the stored block is shared with live readers (or
  /// with sibling fragments in the same arena), they keep the pre-write
  /// snapshot and the store patches a private fork.
  common::Status put_range(const std::string& container,
                           const std::string& name, std::uint64_t offset,
                           common::ByteSpan data);

  common::Status remove(const std::string& container, const std::string& name);
  common::Result<std::vector<std::string>> list(
      const std::string& container) const;

  [[nodiscard]] bool container_exists(const std::string& container) const;
  [[nodiscard]] std::uint64_t stored_bytes() const {
    return stored_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t object_count() const;

  /// Size of one object, if present (metadata-only peek used by audits).
  [[nodiscard]] std::optional<std::uint64_t> object_size(
      const std::string& container, const std::string& name) const;

  /// Drops every container and object (simulates catastrophic data loss,
  /// used by failure-injection tests).
  void wipe();

 private:
  static constexpr std::size_t kShards = 16;

  using Container = common::RobinHoodMap<common::Buffer>;

  struct Shard {
    mutable std::mutex mu;
    common::RobinHoodMap<Container> containers;
  };

  /// Locks the container's shard (by stable_key_hash, reused for the probe)
  /// and returns the guard with the container's objects, null if absent.
  template <typename Self>
  static auto find_container(Self& self, const std::string& container) {
    const std::uint64_t h = common::stable_key_hash(container);
    auto& shard = self.shards_[h % kShards];
    std::unique_lock lock(shard.mu);
    return std::pair{std::move(lock), shard.containers.find_h(h, container)};
  }

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> stored_bytes_{0};
};

}  // namespace hyrd::cloud
