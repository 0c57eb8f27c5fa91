// The 4-ary heap (common/quad_heap.h) against std::priority_queue: random
// push/pop streams with many duplicates must pop the same sequence of
// values at every size, from empty to 10^5 items.
#include "common/quad_heap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace hyrd::common {
namespace {

using Ref = std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                                std::greater<>>;

// Runs `ops` random operations (push with probability `push_pct`%) on both
// heaps, values drawn from [0, range) so duplicates are common.
void differential(std::uint64_t seed, int ops, int push_pct,
                  std::uint64_t range, std::size_t max_size) {
  QuadHeap<std::int64_t> heap;
  Ref ref;
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const bool push = ref.empty() || (ref.size() < max_size &&
                                      static_cast<int>(rng() % 100) < push_pct);
    if (push) {
      const auto v = static_cast<std::int64_t>(rng() % range);
      heap.push(v);
      ref.push(v);
    } else {
      ASSERT_EQ(heap.top(), ref.top()) << "op " << i;
      heap.pop();
      ref.pop();
    }
    ASSERT_EQ(heap.size(), ref.size()) << "op " << i;
    ASSERT_EQ(heap.empty(), ref.empty()) << "op " << i;
  }
  while (!ref.empty()) {
    ASSERT_EQ(heap.top(), ref.top());
    heap.pop();
    ref.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(QuadHeap, EmptyHeapAndSingleItem) {
  QuadHeap<int> heap;
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  heap.push(7);
  EXPECT_EQ(heap.top(), 7);
  heap.pop();
  EXPECT_TRUE(heap.empty());
}

TEST(QuadHeap, SmallSizesMatchPriorityQueue) {
  // Every size 0-5 straddles a node's child group (1 root + 4 children).
  for (std::size_t max_size = 1; max_size <= 5; ++max_size) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      differential(seed * 31 + max_size, 200, 55, 4, max_size);
    }
  }
}

TEST(QuadHeap, LargeStreamsWithDuplicatesMatchPriorityQueue) {
  // Grow to 10^5 items (many equal), then churn and drain.
  differential(7, 300'000, 67, 1000, 100'000);
  differential(8, 300'000, 67, std::uint64_t{1} << 40, 100'000);
}

TEST(QuadHeap, AllEqualItems) {
  QuadHeap<int> heap;
  for (int i = 0; i < 1000; ++i) heap.push(3);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(heap.top(), 3);
    heap.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(QuadHeap, CustomLessOrdersPairsLexicographically) {
  // The shape of the event heap: (time, sequence) with a total order, so
  // the pop sequence is unique and must match exactly.
  struct Item {
    std::int64_t when;
    std::uint64_t seq;
  };
  struct ByWhenThenSeq {
    bool operator()(const Item& a, const Item& b) const {
      return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }
  };
  QuadHeap<Item, ByWhenThenSeq> heap;
  std::priority_queue<std::pair<std::int64_t, std::uint64_t>,
                      std::vector<std::pair<std::int64_t, std::uint64_t>>,
                      std::greater<>>
      ref;
  Xoshiro256 rng(99);
  std::uint64_t seq = 0;
  for (int i = 0; i < 50'000; ++i) {
    if (ref.empty() || rng() % 3 != 0) {
      const auto when = static_cast<std::int64_t>(rng() % 64);
      heap.push({when, seq});
      ref.emplace(when, seq);
      ++seq;
    } else {
      ASSERT_EQ(heap.top().when, ref.top().first);
      ASSERT_EQ(heap.top().seq, ref.top().second);
      heap.pop();
      ref.pop();
    }
  }
}

}  // namespace
}  // namespace hyrd::common
