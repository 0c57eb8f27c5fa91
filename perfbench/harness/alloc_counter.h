// Heap-allocation tally for the benchmark binaries: alloc_counter.cpp
// replaces the global operator new/delete and counts calls and requested
// bytes while counting is switched on.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTally {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Switches counting on or off for every thread.
void set_alloc_counting(bool on);

/// Allocations counted so far (while counting was on).
AllocTally alloc_tally();

/// Excludes the calling thread's allocations from the tally while alive:
/// the benchmark's own bookkeeping must not count as the system's.
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;

 private:
  bool was_paused_;
};

}  // namespace perfbench
