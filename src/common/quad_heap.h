// QuadHeap: an implicit 4-ary min-heap in one flat vector.
//
// The simulator's queues (the event heap, the fair queue's waiting set and
// its tag-retirement heap) hold 10^5-10^6 small trivially copyable items
// and pop one per event or per admit. A 4-ary layout halves the depth of a
// binary heap, and a node's four children sit next to each other, so a pop
// touches about log4(n) cache lines instead of log2(n).
//
// Unlike std::priority_queue, `top()` is the *smallest* item under `Less`.
// Items that compare equal pop in an unspecified order; every heap in this
// codebase either orders by a total key or only observes the multiset.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace hyrd::common {

template <typename T, typename Less = std::less<T>>
class QuadHeap {
 public:
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const T& top() const { return items_.front(); }

  void push(T item) {
    std::size_t i = items_.size();
    items_.push_back(item);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!less_(item, items_[parent])) break;
      items_[i] = std::move(items_[parent]);
      i = parent;
    }
    items_[i] = std::move(item);
  }

  void pop() {
    T last = std::move(items_.back());
    items_.pop_back();
    const std::size_t n = items_.size();
    if (n == 0) return;
    // Sift `last` down from the root through the smallest child.
    std::size_t i = 0;
    for (std::size_t first = 1; first < n; first = 4 * i + 1) {
      const std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t min = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less_(items_[c], items_[min])) min = c;
      }
      if (!less_(items_[min], last)) break;
      items_[i] = std::move(items_[min]);
      i = min;
    }
    items_[i] = std::move(last);
  }

 private:
  std::vector<T> items_;
  [[no_unique_address]] Less less_;
};

}  // namespace hyrd::common
