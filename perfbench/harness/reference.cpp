#include "harness/reference.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <sstream>

#include "harness/alloc_counter.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kStoreKeys = 10'000;  // the store holds about this many
constexpr std::size_t kCountsCap = 4'000;
constexpr std::size_t kRecentCap = 32;

// Work per slice.
constexpr int kStoreOps = 1'200;
constexpr int kMixedOps = 300;

std::uint64_t next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// "/tenant-000042/object-0" for id 42.
std::string store_key(std::uint64_t id) {
  char key[48];
  std::snprintf(key, sizeof(key), "/tenant-%06llu/object-%llu",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(id % 7));
  return key;
}

}  // namespace

ReferenceKernel::ReferenceKernel()
    : path_re_("/tenant-([0-9]+)/object-([0-9])") {
  const AllocPause pause;
  for (std::uint64_t id = 0; id < kStoreKeys; ++id) {
    store_.emplace(store_key(id), std::string(64 + next(rng_) % 448, 'x'));
    timers_.emplace(next(rng_) >> 20, id);
  }
  // Reach the steady state of every container before the first slice.
  for (int i = 0; i < 20; ++i) run_slice();
}

double ReferenceKernel::run_slice() {
  const AllocPause pause;
  const double start = thread_cpu_seconds();
  store_ops();
  mixed_ops();
  return thread_cpu_seconds() - start;
}

// Keys are drawn from twice the store's size: a hit is read, copied,
// checksummed and erased, a miss inserts, so the size stays near
// kStoreKeys. Each op also fires and re-arms one timer.
void ReferenceKernel::store_ops() {
  std::uint64_t acc = sink_;
  for (int i = 0; i < kStoreOps; ++i) {
    const std::uint64_t id = next(rng_) % (2 * kStoreKeys);
    std::string key = store_key(id);
    if (const auto it = store_.find(key); it != store_.end()) {
      const std::string value = it->second;
      std::uint64_t fnv = 0xcbf29ce484222325ull;
      for (const char c : value) {
        fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
      }
      acc += fnv;
      store_.erase(it);
    } else {
      store_.emplace(std::move(key),
                     std::string(64 + next(rng_) % 448, static_cast<char>(id)));
    }
    const Event fired = timers_.top();
    timers_.pop();
    timers_.emplace(fired.first + (next(rng_) >> 40), fired.second);
    acc += fired.second;
  }
  sink_ = acc;
}

// Formats a path with a stream, counts it in an ordered map, parses it back
// with a regex, tracks ids in a set, and sorts the most recent strings.
void ReferenceKernel::mixed_ops() {
  std::uint64_t acc = sink_;
  for (int i = 0; i < kMixedOps; ++i) {
    const std::uint64_t v = next(rng_);
    std::ostringstream os;
    os << "/tenant-" << v % 100'000 << "/object-" << v % 7 << ':'
       << static_cast<double>(v % 1000) / 7.0;
    const std::string path = os.str();

    counts_[path] += 1;
    if (counts_.size() > kCountsCap) counts_.erase(counts_.begin());

    std::smatch match;
    if (std::regex_search(path, match, path_re_)) {
      acc += std::stoull(match[1].str());
    }

    ids_.insert(v >> 40);
    if (ids_.size() > kCountsCap) ids_.erase(ids_.begin());

    recent_.push_back(std::to_string(v));
    if (recent_.size() > kRecentCap) recent_.erase(recent_.begin());
    std::vector<std::string> sorted = recent_;
    std::sort(sorted.begin(), sorted.end());
    acc += sorted.front().size();
  }
  sink_ = acc;
}

ReferenceKernel& reference_kernel() {
  static ReferenceKernel kernel;
  return kernel;
}

double reference_seconds(double seconds, double slice_before,
                         double slice_after) {
  return seconds * ReferenceKernel::kNominalSliceSeconds * 2 /
         (slice_before + slice_after);
}

}  // namespace perfbench
