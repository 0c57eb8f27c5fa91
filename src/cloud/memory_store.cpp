#include "cloud/memory_store.h"

#include <algorithm>
#include <cstring>

#include "common/copy_meter.h"

namespace hyrd::cloud {

namespace {

common::Status no_container(const std::string& container) {
  return common::not_found("no such container: " + container);
}

common::Status no_object(const std::string& container,
                         const std::string& name) {
  return common::not_found("no such object: " + container + "/" + name);
}

}  // namespace

common::Status MemoryStore::create(const std::string& container) {
  const std::uint64_t h = common::stable_key_hash(container);
  Shard& shard = shards_[h % kShards];
  std::lock_guard lock(shard.mu);
  const std::size_t before = shard.containers.size();
  (void)shard.containers.try_emplace_h(h, container);
  if (shard.containers.size() == before) {
    return common::already_exists("container exists: " + container);
  }
  return common::Status::ok();
}

common::Status MemoryStore::put(const std::string& container,
                                const std::string& name,
                                common::Buffer data) {
  // own() outside the lock: a no-op refbump for owning buffers, a deep
  // copy (the only one this path can make) for borrowed spans.
  common::Buffer owned = std::move(data).own();
  auto [lock, objects] = find_container(*this, container);
  if (objects == nullptr) return no_container(container);
  common::Buffer& obj = objects->try_emplace(name);
  stored_bytes_.fetch_sub(obj.size(), std::memory_order_relaxed);
  obj = std::move(owned);
  stored_bytes_.fetch_add(obj.size(), std::memory_order_relaxed);
  return common::Status::ok();
}

common::Result<common::Buffer> MemoryStore::get(const std::string& container,
                                                const std::string& name) const {
  auto [lock, objects] = find_container(*this, container);
  if (objects == nullptr) return no_container(container);
  const common::Buffer* obj = objects->find(name);
  if (obj == nullptr) return no_object(container, name);
  return *obj;  // refbump, no byte moves
}

common::Result<common::Buffer> MemoryStore::get_range(
    const std::string& container, const std::string& name,
    std::uint64_t offset, std::uint64_t length) const {
  auto [lock, objects] = find_container(*this, container);
  if (objects == nullptr) return no_container(container);
  const common::Buffer* obj = objects->find(name);
  if (obj == nullptr) return no_object(container, name);
  if (!common::range_within(offset, length, obj->size())) {
    return common::invalid_argument("range beyond object end");
  }
  return obj->slice(static_cast<std::size_t>(offset),
                    static_cast<std::size_t>(length));
}

common::Status MemoryStore::put_range(const std::string& container,
                                      const std::string& name,
                                      std::uint64_t offset,
                                      common::ByteSpan data) {
  auto [lock, objects] = find_container(*this, container);
  if (objects == nullptr) return no_container(container);
  common::Buffer* obj = objects->find(name);
  if (obj == nullptr) return no_object(container, name);
  if (!common::range_within(offset, data.size(), obj->size())) {
    return common::invalid_argument("range write beyond object end");
  }
  // Copy-on-write: into_bytes() steals the block in O(1) when this store
  // holds the only reference; otherwise it forks a private copy and live
  // readers (or arena-sibling fragments) keep their snapshot.
  common::Bytes block = std::move(*obj).into_bytes();
  common::count_copied_bytes(data.size());
  std::memcpy(block.data() + offset, data.data(), data.size());
  *obj = common::Buffer::from(std::move(block));
  return common::Status::ok();
}

common::Status MemoryStore::remove(const std::string& container,
                                   const std::string& name) {
  auto [lock, objects] = find_container(*this, container);
  if (objects == nullptr) return no_container(container);
  const std::uint64_t h = common::stable_key_hash(name);
  const common::Buffer* obj = objects->find_h(h, name);
  if (obj == nullptr) return no_object(container, name);
  stored_bytes_.fetch_sub(obj->size(), std::memory_order_relaxed);
  objects->erase_h(h, name);
  return common::Status::ok();
}

common::Result<std::vector<std::string>> MemoryStore::list(
    const std::string& container) const {
  auto [lock, objects] = find_container(*this, container);
  if (objects == nullptr) return no_container(container);
  std::vector<std::string> names;
  names.reserve(objects->size());
  objects->for_each([&](const std::string& name, const common::Buffer&) {
    names.push_back(name);
  });
  std::sort(names.begin(), names.end());  // the table is unordered
  return names;
}

bool MemoryStore::container_exists(const std::string& container) const {
  return find_container(*this, container).second != nullptr;
}

std::uint64_t MemoryStore::object_count() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    shard.containers.for_each(
        [&](const std::string&, const Container& objects) {
          n += objects.size();
        });
  }
  return n;
}

std::optional<std::uint64_t> MemoryStore::object_size(
    const std::string& container, const std::string& name) const {
  auto [lock, objects] = find_container(*this, container);
  if (objects == nullptr) return std::nullopt;
  const common::Buffer* obj = objects->find(name);
  if (obj == nullptr) return std::nullopt;
  return obj->size();
}

void MemoryStore::wipe() {
  // Shard by shard: wipe is not atomic with respect to concurrent writers
  // (neither was the single-lock version from any caller's perspective —
  // a racing put can always land "after" the wipe).
  for (auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    shard.containers.for_each([&](const std::string&, const Container& c) {
      c.for_each([&](const std::string&, const common::Buffer& obj) {
        stored_bytes_.fetch_sub(obj.size(), std::memory_order_relaxed);
      });
    });
    shard.containers.clear();
  }
}

}  // namespace hyrd::cloud
