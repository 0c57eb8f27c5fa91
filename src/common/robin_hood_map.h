// RobinHoodMap: the open-addressed hash table the metadata and object-store
// shards are built from. Robin-hood displacement keeps probe sequences short
// and uniform under high load; backward-shift deletion keeps the table
// tombstone-free, so lookup cost never degrades under churn.
//
// Layout is struct-of-arrays: the probe sequence walks a dense array of
// 64-bit hashes (8 bytes per step — one cache line covers 8 probes) and
// touches the key/value slot only on a hash match, so a miss or a short
// probe costs one line, not one line per slot.
//
// This is deliberately not a general-purpose container: keys are strings,
// values are default-constructible, and the caller owns all locking — each
// RobinHoodMap lives inside one MetadataStore or MemoryStore shard and is
// only touched under that shard's mutex.
// References returned by find/try_emplace are invalidated by any mutation.
// The `_h` variants take the key's stable_key_hash precomputed, so callers
// that already hashed the key for shard routing don't hash it twice.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/checksum.h"

namespace hyrd::common {

/// The stable 64-bit key hash shared by the table, the keyspace ring, and
/// the write-order stripes: fnv1a with a SplitMix64-style finalizer (fnv1a
/// alone clusters low bits on short ASCII keys). Never returns 0 — that is
/// the table's empty-slot sentinel.
inline std::uint64_t stable_key_hash(std::string_view key) {
  std::uint64_t z = fnv1a(key);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

template <typename V>
class RobinHoodMap {
 public:
  RobinHoodMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] V* find(std::string_view key) {
    return const_cast<V*>(std::as_const(*this).find_h(stable_key_hash(key), key));
  }
  [[nodiscard]] const V* find(std::string_view key) const {
    return find_h(stable_key_hash(key), key);
  }

  [[nodiscard]] V* find_h(std::uint64_t h, std::string_view key) {
    return const_cast<V*>(std::as_const(*this).find_h(h, key));
  }

  [[nodiscard]] const V* find_h(std::uint64_t h, std::string_view key) const {
    if (hashes_.empty()) return nullptr;
    std::size_t i = h & mask_;
    // Fetch the home slot while the probe array's line is in flight: hits
    // land on the first probe almost always (robin-hood keeps mean probe
    // distance < 1), so this overlaps the two cache misses a lookup must
    // pay instead of chaining them.
    __builtin_prefetch(&slots_[i], 0, 1);
    std::size_t dist = 0;
    for (;;) {
      const std::uint64_t sh = hashes_[i];
      if (sh == 0) return nullptr;
      // A resident poorer than us would have been displaced on insert, so
      // passing one proves the key is absent.
      if (probe_distance(sh, i) < dist) return nullptr;
      if (sh == h && slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
      ++dist;
    }
  }

  /// Returns the value for `key`, default-constructing (and inserting) it
  /// if absent.
  V& try_emplace(std::string_view key) {
    return try_emplace_h(stable_key_hash(key), key);
  }
  V& try_emplace_h(std::uint64_t h, std::string_view key) {
    if (V* v = find_h(h, key)) return *v;
    reserve_one();
    return *insert_fresh(h, std::string(key), V{});
  }

  /// Inserts or overwrites; returns true when the key was new. Safe to
  /// pass a `key` view into the value being moved: the key string is
  /// materialized before the value moves.
  bool insert_or_assign(std::string_view key, V&& value) {
    return insert_or_assign_h(stable_key_hash(key), key, std::move(value));
  }
  bool insert_or_assign_h(std::uint64_t h, std::string_view key, V&& value) {
    if (V* v = find_h(h, key)) {
      *v = std::move(value);
      return false;
    }
    reserve_one();
    std::string k(key);  // materialize before the value (and any view into
                         // it) is moved away
    insert_fresh(h, std::move(k), std::move(value));
    return true;
  }

  /// Backward-shift deletion: the cluster after the hole moves one slot
  /// back, so no tombstones accumulate. False if the key was absent.
  bool erase(std::string_view key) {
    return erase_h(stable_key_hash(key), key);
  }
  bool erase_h(std::uint64_t h, std::string_view key) {
    if (hashes_.empty()) return false;
    std::size_t i = h & mask_;
    std::size_t dist = 0;
    for (;;) {
      const std::uint64_t sh = hashes_[i];
      if (sh == 0) return false;
      if (probe_distance(sh, i) < dist) return false;
      if (sh == h && slots_[i].key == key) break;
      i = (i + 1) & mask_;
      ++dist;
    }
    std::size_t j = (i + 1) & mask_;
    for (;;) {
      if (hashes_[j] == 0 || probe_distance(hashes_[j], j) == 0) break;
      hashes_[i] = hashes_[j];
      slots_[i] = std::move(slots_[j]);
      hashes_[j] = 0;
      slots_[j].key.clear();
      slots_[j].value = V{};
      i = j;
      j = (j + 1) & mask_;
    }
    hashes_[i] = 0;
    slots_[i].key.clear();
    slots_[i].value = V{};
    --size_;
    return true;
  }

  /// Visits every (key, value) in unspecified order; callers that need
  /// determinism (serialization, listings) sort what they collect.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      if (hashes_[i] != 0) f(slots_[i].key, slots_[i].value);
    }
  }

  void clear() {
    hashes_.clear();
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

 private:
  struct Slot {
    std::string key;
    V value{};
  };

  [[nodiscard]] std::size_t probe_distance(std::uint64_t hash,
                                           std::size_t at) const {
    return (at + hashes_.size() - (hash & mask_)) & mask_;
  }

  /// Grows before the load factor crosses 7/8: probes stay short there, and
  /// with key + value slots the headroom is what costs (memory).
  void reserve_one() {
    if (hashes_.empty()) {
      rehash(8);
    } else if ((size_ + 1) * 8 > hashes_.size() * 7) {
      rehash(hashes_.size() * 2);
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old_hashes = std::move(hashes_);
    std::vector<Slot> old_slots = std::move(slots_);
    hashes_.assign(capacity, 0);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_hashes.size(); ++i) {
      if (old_hashes[i] != 0) {
        insert_fresh(old_hashes[i], std::move(old_slots[i].key),
                     std::move(old_slots[i].value));
      }
    }
  }

  /// Robin-hood insert of a key known to be absent. Returns the address
  /// where the inserted value came to rest.
  V* insert_fresh(std::uint64_t h, std::string key, V value) {
    std::size_t i = h & mask_;
    std::size_t dist = 0;
    V* inserted = nullptr;
    for (;;) {
      if (hashes_[i] == 0) {
        hashes_[i] = h;
        slots_[i].key = std::move(key);
        slots_[i].value = std::move(value);
        ++size_;
        return inserted != nullptr ? inserted : &slots_[i].value;
      }
      const std::size_t sdist = probe_distance(hashes_[i], i);
      if (sdist < dist) {
        // Rob the rich: the resident is closer to home than we are; it
        // takes over the carried element and we continue placing it.
        std::swap(h, hashes_[i]);
        std::swap(key, slots_[i].key);
        std::swap(value, slots_[i].value);
        if (inserted == nullptr) inserted = &slots_[i].value;
        dist = sdist;
      }
      i = (i + 1) & mask_;
      ++dist;
    }
  }

  std::vector<std::uint64_t> hashes_;  // 0 = empty; probe array
  std::vector<Slot> slots_;            // parallel key/value storage
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hyrd::common
