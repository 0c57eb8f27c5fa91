// Layer replays: each lower layer's public function called again on its
// own, shaped like the workload that was just run (same object size, key
// count, flow count and queue depth as measured in the run), to price one
// call in wall nanoseconds. Multiplied by the calls per client op counted
// in the run, they attribute the end-to-end time to layers.
#pragma once

#include <cstdint>

#include "cloud/congestion.h"
#include "common/clock.h"

namespace perfbench {

struct ReplayShape {
  std::uint64_t object_bytes = 4096;        // client object size
  std::uint64_t provider_object_bytes = 4096;  // mean bytes per provider PUT
  std::uint64_t store_keys = 1;             // objects on the busiest provider
  std::uint64_t flows = 1;                  // tenants
  std::uint64_t queue_depth = 0;            // peak fair-queue depth
  std::uint64_t pending_events = 1;         // tenants waiting on the queue
  double provider_put_share = 0.5;          // PUTs among provider PUT+GET
  hyrd::common::SimDuration mean_think = hyrd::common::kSecond;
  hyrd::cloud::CongestionParams congestion;
  std::size_t stripe_k = 1;                 // erasure geometry
  std::size_t stripe_m = 1;
};

struct ReplayCosts {
  double fq_admit_ns = 0;      // FairQueue::admit
  double store_put_ns = 0;     // MemoryStore::put (overwrite)
  double store_get_ns = 0;     // MemoryStore::get
  double envelope_ns = 0;      // rest_codec encode/serialize/parse/decode
  double event_ns = 0;         // EventQueue::schedule_at + step
  double crc32c_gbps = 0;      // crc32c over one object
  double memcpy_gbps = 0;      // memcpy of one object
  double encode_gbps = 0;      // stripe encode, data bytes in per second
  double encode_ns_per_parity_byte = 0;
};

/// Runs every replay; takes well under a second per workload.
ReplayCosts run_replays(const ReplayShape& shape);

}  // namespace perfbench
