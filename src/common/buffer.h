// Ref-counted immutable byte buffer with O(1) slicing — the unit the
// zero-copy data plane moves (IOBuf-style: shared control block plus an
// offset/length view).
//
// Ownership model (DESIGN.md §9):
//  * A Buffer is an immutable *view* of a heap block shared by refcount.
//    slice() is O(1): it bumps the refcount and narrows the view; no byte
//    moves. Copying/moving a Buffer never copies payload.
//  * Nobody mutates bytes reachable through a Buffer. The only mutation
//    escape hatch is into_bytes()/to_bytes(), which hands the caller an
//    owned std::vector — stolen in O(1) when the Buffer is the sole owner
//    of its whole block, deep-copied (copy-on-write fork) otherwise.
//  * borrow() wraps foreign memory without owning it — the bridge from the
//    legacy ByteSpan entry points. A borrowed Buffer must not outlive the
//    memory it views; anything that stores a Buffer calls own(), which is
//    a refbump for owning buffers and a deep copy only for borrowed ones.
//  * MutableBuffer is the write-side arena: build bytes in place once
//    (e.g. all stripe shards of an object), freeze() into an immutable
//    Buffer, then slice per-fragment.
//
// Every deep copy is reported to the copy meter, so benches can prove the
// plane is as zero-copy as it claims.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/copy_meter.h"

namespace hyrd::common {

class Buffer {
 public:
  /// Empty buffer (owning, trivially; size() == 0).
  Buffer() = default;

  /// Deep copy of `data` into a fresh block (counted by the copy meter).
  static Buffer copy(ByteSpan data) {
    if (data.empty()) return Buffer();
    count_copied_bytes(data.size());
    auto block = std::make_shared<Bytes>(data.begin(), data.end());
    const std::uint8_t* ptr = block->data();
    return Buffer(std::move(block), ptr, data.size());
  }

  /// Adopts an existing vector without copying.
  static Buffer from(Bytes&& data) {
    if (data.empty()) return Buffer();
    auto block = std::make_shared<Bytes>(std::move(data));
    const std::uint8_t* ptr = block->data();
    const std::size_t len = block->size();
    return Buffer(std::move(block), ptr, len);
  }

  /// Deep copy of text (tests / metadata convenience).
  static Buffer of(std::string_view text) {
    return copy(ByteSpan(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size()));
  }

  /// Non-owning view of foreign memory. The caller guarantees `data`
  /// outlives every use of the returned Buffer; durable sinks must call
  /// own() before keeping it.
  static Buffer borrow(ByteSpan data) {
    return Buffer(nullptr, data.data(), data.size());
  }

  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] const std::uint8_t* data() const { return ptr_; }
  [[nodiscard]] const std::uint8_t* begin() const { return ptr_; }
  [[nodiscard]] const std::uint8_t* end() const { return ptr_ + len_; }
  const std::uint8_t& operator[](std::size_t i) const { return ptr_[i]; }

  [[nodiscard]] ByteSpan span() const { return ByteSpan(ptr_, len_); }
  operator ByteSpan() const { return span(); }  // NOLINT(google-explicit-constructor)

  /// O(1) sub-view sharing the same block. [offset, offset+length) must lie
  /// within the buffer.
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t length) const {
    assert(offset <= len_ && length <= len_ - offset);
    return Buffer(block_, ptr_ + offset, length);
  }

  /// O(1) prefix view (n is clamped to size()).
  [[nodiscard]] Buffer first(std::size_t n) const {
    return slice(0, std::min(n, len_));
  }

  /// False only for borrow()ed views of foreign memory.
  [[nodiscard]] bool owning() const { return block_ != nullptr || len_ == 0; }

  /// A Buffer safe to store durably: refbump when already owning, deep copy
  /// (counted) when borrowed.
  [[nodiscard]] Buffer own() const& { return owning() ? *this : copy(span()); }
  [[nodiscard]] Buffer own() && {
    return owning() ? std::move(*this) : copy(span());
  }

  /// Number of Buffer views sharing this block (0 for empty/borrowed).
  [[nodiscard]] long use_count() const {
    return block_ ? block_.use_count() : 0;
  }

  /// True when the two views alias the same underlying block.
  [[nodiscard]] bool same_block(const Buffer& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

  /// Owned copy of the bytes (always a deep copy, counted).
  [[nodiscard]] Bytes to_bytes() const {
    count_copied_bytes(len_);
    return Bytes(begin(), end());
  }

  /// Consumes the buffer into an owned vector. O(1) steal when this view is
  /// the sole owner of its entire block; otherwise a copy-on-write fork
  /// (deep copy, counted) so other views keep their snapshot.
  [[nodiscard]] Bytes into_bytes() && {
    if (block_ && block_.use_count() == 1 && ptr_ == block_->data() &&
        len_ == block_->size()) {
      Bytes out = std::move(*block_);
      block_.reset();
      ptr_ = nullptr;
      len_ = 0;
      return out;
    }
    Bytes out = to_bytes();
    *this = Buffer();
    return out;
  }

  /// If `parts` are adjacent views of one block (in order, no gaps), returns
  /// an O(1) Buffer spanning the first `total_len` bytes of the run;
  /// std::nullopt otherwise. The decode fast path: fragments read back from
  /// a store that kept slices of the writer's arena reassemble for free.
  static std::optional<Buffer> join_contiguous(std::span<const Buffer> parts,
                                               std::size_t total_len) {
    if (parts.empty()) return std::nullopt;
    if (!parts.front().block_) return std::nullopt;
    std::size_t run = parts.front().len_;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (!parts[i].same_block(parts.front())) return std::nullopt;
      if (parts[i].ptr_ != parts.front().ptr_ + run) return std::nullopt;
      run += parts[i].len_;
    }
    if (total_len > run) return std::nullopt;
    return Buffer(parts.front().block_, parts.front().ptr_, total_len);
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.len_ == b.len_ &&
           (a.ptr_ == b.ptr_ || std::equal(a.begin(), a.end(), b.begin()));
  }
  friend bool operator==(const Buffer& a, const Bytes& b) {
    return a.len_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  friend class MutableBuffer;

  Buffer(std::shared_ptr<Bytes> block, const std::uint8_t* ptr,
         std::size_t len)
      : block_(std::move(block)), ptr_(ptr), len_(len) {}

  std::shared_ptr<Bytes> block_;
  const std::uint8_t* ptr_ = nullptr;
  std::size_t len_ = 0;
};

/// Write-side arena: a uniquely-owned zero-initialised block the producer
/// fills in place, then freeze()s into an immutable Buffer to slice out.
class MutableBuffer {
 public:
  explicit MutableBuffer(std::size_t size)
      : block_(std::make_shared<Bytes>(size, std::uint8_t{0})) {}

  [[nodiscard]] std::size_t size() const { return block_->size(); }
  [[nodiscard]] std::uint8_t* data() { return block_->data(); }
  [[nodiscard]] MutByteSpan span() { return MutByteSpan(*block_); }
  [[nodiscard]] MutByteSpan span(std::size_t offset, std::size_t length) {
    assert(offset <= block_->size() && length <= block_->size() - offset);
    return MutByteSpan(block_->data() + offset, length);
  }

  /// Copies `src` into the arena at `offset` (counted).
  void write(std::size_t offset, ByteSpan src) {
    assert(offset <= block_->size() && src.size() <= block_->size() - offset);
    if (src.empty()) return;
    count_copied_bytes(src.size());
    std::memcpy(block_->data() + offset, src.data(), src.size());
  }

  /// Seals the arena. The MutableBuffer is spent afterwards. Writers may
  /// keep MutByteSpans taken *before* freeze() and fill disjoint regions
  /// that no Buffer view has been sliced over yet (the erasure write path
  /// does this for parity: its stripe pass encodes parity after the data
  /// fragments are already in flight).
  [[nodiscard]] Buffer freeze() && {
    const std::uint8_t* ptr = block_->data();
    const std::size_t len = block_->size();
    return Buffer(std::move(block_), ptr, len);
  }

 private:
  std::shared_ptr<Bytes> block_;
};

/// Overflow-safe range containment: true iff [offset, offset+length) lies
/// within [0, size). Written without `offset + length`, which wraps for
/// huge offsets and falsely passes `> size` checks.
constexpr bool range_within(std::uint64_t offset, std::uint64_t length,
                            std::uint64_t size) {
  return offset <= size && length <= size - offset;
}

}  // namespace hyrd::common
