// A fixed piece of work, independent of the library, that the harness runs
// in short slices between stretches of the event loop. Its CPU time per
// slice tracks how fast the host runs the process at that moment, so the
// loop's CPU time can be expressed in reference-speed seconds.
//
// On a shared VM the host slows a vCPU for seconds to minutes at a time
// (neighbours contending for the core, its caches and memory). CPU time
// does not exclude that, so raw ops per CPU second swing by 30-40% between
// benchmark runs of the same code; the ratio to this kernel's speed swings
// far less (perfbench/NOTES.md has the measurements).
//
// The kernel does what the client stack spends its time on, with the C++
// standard library instead of the repository's code: a string-keyed object
// store (formatted keys, lookups, copies, a checksum, inserts and erases,
// malloc and free) with a priority queue beside it, and a mix of streams,
// regex, ordered containers and sorting whose code footprint is large, as
// the stack's is. It never calls the library, so nothing a change to src/
// does can alter its work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <regex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

class ReferenceKernel {
 public:
  /// CPU seconds of one slice on an unloaded host. Only a scale: a
  /// normalised time is measured seconds x kNominalSliceSeconds / slice.
  static constexpr double kNominalSliceSeconds = 0.004;

  ReferenceKernel();
  ReferenceKernel(const ReferenceKernel&) = delete;
  ReferenceKernel& operator=(const ReferenceKernel&) = delete;

  /// Runs one slice of the fixed work on the calling thread and returns its
  /// thread CPU seconds. Its heap allocations are not counted as the
  /// system's (AllocPause).
  double run_slice();

 private:
  using Event = std::pair<std::uint64_t, std::uint64_t>;

  void store_ops();
  void mixed_ops();

  std::unordered_map<std::string, std::string> store_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> timers_;
  std::map<std::string, std::uint64_t> counts_;
  std::set<std::uint64_t> ids_;
  std::vector<std::string> recent_;
  std::regex path_re_;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t sink_ = 0;  // keeps the work observable
};

/// The process-wide kernel, built on first use.
ReferenceKernel& reference_kernel();

/// `seconds` measured between two slices that took `slice_before` and
/// `slice_after`, in reference-speed seconds.
double reference_seconds(double seconds, double slice_before,
                         double slice_after);

}  // namespace perfbench
