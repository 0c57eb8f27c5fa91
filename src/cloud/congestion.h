// Virtual-time congestion model for a simulated provider: bounded service
// capacity + a weighted fair queue over tenants.
//
// The analytic LatencyModel (latency_model.h) prices a request as if the
// provider were infinitely wide: ten thousand concurrent GETs each see the
// same first-byte + transfer time. That is exactly the assumption the
// scale-out engine (sim/) exists to break — a real provider front-end has
// a finite number of service slots, and past the saturation point latency
// is dominated by *queueing*, not transfer. This module adds that knee.
//
// Model: `channels` parallel service slots, each serving one request at a
// time. A request arriving at virtual time `a` with server-side service
// demand `s` (fixed per-op cost + bytes / service rate):
//
//   gate  = max(a, tag[tenant])            per-flow pacing (fairness)
//   begin = max(gate, earliest slot free)  queueing
//   wait  = begin - a                      what the client additionally sees
//
// and the flow's tag advances to begin + s / weight: a tenant issuing
// faster than its weighted share self-queues behind its own tag while
// light flows pass through at slot availability — start-time fair queuing
// in the style of SFQ, computed incrementally at admission so each op's
// delay is known the instant it arrives (the discrete-event loop charges
// it to the tenant's completion without any provider-side callback).
//
// Admission order is arrival order as dispatched by the event loop; an op
// that would exceed `max_queue_depth` waiting requests is rejected with
// kResourceExhausted (an HTTP 429), which is how overload stays bounded
// instead of accumulating unbounded virtual backlog.
//
// The queue only engages for requests that carry a VirtualContext
// (common/virtual_time.h). Single-client paths never install one, so every
// pre-existing bench and test is bit-for-bit unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/clock.h"
#include "common/quad_heap.h"

namespace hyrd::cloud {

struct CongestionParams {
  /// Concurrent service slots at the provider front-end.
  std::size_t channels = 32;

  /// Fixed server-side cost per request (request parsing, index lookup).
  double per_op_service_ms = 2.0;

  /// Per-slot payload service rate, MB/s (decimal).
  double service_mbps = 200.0;

  /// Reject (429) once this many requests are waiting for a slot.
  std::size_t max_queue_depth = 250'000;
};

struct CongestionStats {
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;     // admitted with wait > 0
  std::uint64_t throttled = 0;  // rejected at the depth cap
  common::SimDuration total_wait = 0;
  common::SimDuration max_wait = 0;
  std::size_t peak_depth = 0;
};

/// One provider's admission state. Not internally synchronized: SimProvider
/// drives it under its own mutex.
class FairQueue {
 public:
  explicit FairQueue(CongestionParams params);

  struct Admission {
    bool admitted = true;
    common::SimDuration wait = 0;  // queueing delay added to the op
  };

  /// Admits (or rejects) a request from `tenant` arriving at virtual time
  /// `arrival` carrying `bytes` of payload. Arrivals need not be globally
  /// monotonic (failover chains land "late"); state only moves forward.
  Admission admit(std::uint64_t tenant, double weight,
                  common::SimDuration arrival, std::uint64_t bytes);

  /// Server-side service demand for a request of `bytes` payload.
  [[nodiscard]] common::SimDuration service_time(std::uint64_t bytes) const;

  /// Waiting-request count as of virtual time `now` (prunes entries whose
  /// service already began). This is the queue depth the timeline sampler
  /// exports per provider.
  [[nodiscard]] std::size_t depth_at(common::SimDuration now);

  [[nodiscard]] const CongestionParams& params() const { return params_; }
  [[nodiscard]] const CongestionStats& stats() const { return stats_; }

  /// Flows holding a pacing tag; the retirement heap holds one entry each.
  [[nodiscard]] std::size_t tagged_flows() const { return flows_.size(); }
  [[nodiscard]] std::size_t pending_retirements() const {
    return tag_expiry_.size();
  }

 private:
  // Flow id -> pacing tag: open addressing with linear probing over 16-byte
  // slots, a Fibonacci hash, backward-shift deletion (no tombstones) and a
  // maximum load of 3/4. Flow ids are arbitrary 64-bit values (the repair
  // flow is ~0), so an empty slot is marked by a tag no flow can hold.
  class FlowTable {
   public:
    /// The tag of `flow`, inserted as `init` when absent (`fresh` says so).
    /// The reference is invalidated by the next insert or erase.
    common::SimDuration& find_or_insert(std::uint64_t flow,
                                        common::SimDuration init,
                                        bool& fresh);
    /// The tag of `flow` (which must be present); erases the flow when
    /// that tag is at or before `now`.
    common::SimDuration retire_if_expired(std::uint64_t flow,
                                          common::SimDuration now);
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    static constexpr common::SimDuration kEmpty =
        std::numeric_limits<common::SimDuration>::min();
    struct Entry {
      std::uint64_t flow = 0;
      common::SimDuration tag = kEmpty;
    };
    [[nodiscard]] std::size_t home(std::uint64_t flow) const;
    // The flow's slot, or the empty slot that ends its probe sequence.
    [[nodiscard]] std::size_t locate(std::uint64_t flow) const;
    void erase_at(std::size_t i);
    void grow();

    std::vector<Entry> slots_;  // power-of-two size, or empty
    std::size_t size_ = 0;
    int shift_ = 64;  // 64 - log2(slots_.size())
  };

  // Retirement-heap entry: a key the flow's tag has held, and the flow.
  struct TagEntry {
    common::SimDuration key;
    std::uint64_t flow;
    friend bool operator<(const TagEntry& a, const TagEntry& b) {
      return a.key != b.key ? a.key < b.key : a.flow < b.flow;
    }
  };

  void prune(common::SimDuration arrival);

  CongestionParams params_;
  CongestionStats stats_;
  std::vector<common::SimDuration> slot_free_;  // per-channel busy-until
  // Begin times of admitted-but-not-yet-started requests; its size is the
  // queue depth at the latest arrival after prune().
  common::QuadHeap<common::SimDuration> waiting_;
  // Per-flow virtual finish tags. Only flows currently ahead of real
  // arrival time matter; stale tags are retired so the table tracks the set
  // of *backlogged* tenants, not every tenant ever seen.
  FlowTable flows_;
  // One entry per tracked flow, keyed by a tag the flow has held (its
  // current one or an earlier one), earliest on top: retirement pops the
  // expired keys instead of scanning flows_.
  common::QuadHeap<TagEntry> tag_expiry_;
  std::uint64_t admits_since_retire_ = 0;
};

}  // namespace hyrd::cloud
