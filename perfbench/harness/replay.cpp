#include "harness/replay.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "cloud/memory_store.h"
#include "common/buffer.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "dist/scheme.h"
#include "erasure/reed_solomon.h"
#include "gcsapi/rest_codec.h"
#include "sim/event_queue.h"

namespace perfbench {

namespace {

namespace common = hyrd::common;
using Clock = std::chrono::steady_clock;

// Results are folded in here so the replayed calls cannot be optimised out.
volatile std::uint64_t g_sink = 0;

/// Median wall ns per call of `call(i)` over five batches, each long
/// enough (>= 4 ms) that clock reads do not matter.
template <typename F>
double ns_per_call(F&& call) {
  std::uint64_t i = 0;
  std::uint64_t batch = 1;
  auto run_batch = [&](std::uint64_t n) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t acc = 0;
    for (std::uint64_t end = i + n; i < end; ++i) acc += call(i);
    g_sink = g_sink + acc;
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  };
  while (run_batch(batch) < 4e6) batch *= 2;
  std::vector<double> per_call;
  for (int r = 0; r < 5; ++r) {
    per_call.push_back(run_batch(batch) / static_cast<double>(batch));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

std::string object_name(std::uint64_t i) {
  return hyrd::dist::fragment_object_name("t" + std::to_string(i) + "/o", 'r',
                                          0);
}

common::Buffer filled(std::size_t bytes, std::uint64_t seed) {
  common::MutableBuffer buf(bytes);
  common::SplitMix64 mixer(seed);
  for (std::size_t i = 0; i < bytes; ++i) {
    buf.data()[i] = static_cast<std::uint8_t>(mixer.next());
  }
  return std::move(buf).freeze();
}

// Fair queue held at the measured backlog: `depth` + channels arrivals at
// t = 0, then arrivals at exactly the service rate, flows taken round robin
// over the tenant count.
double replay_fair_queue(const ReplayShape& s) {
  hyrd::cloud::FairQueue fq(s.congestion);
  const hyrd::cloud::CongestionParams& p = fq.params();
  const std::uint64_t cap = p.max_queue_depth > 0 ? p.max_queue_depth - 1 : 0;
  const std::uint64_t depth = std::min(s.queue_depth, cap);
  const double spacing = static_cast<double>(fq.service_time(
                             s.provider_object_bytes)) /
                         static_cast<double>(p.channels);
  const std::uint64_t flows = std::max<std::uint64_t>(1, s.flows);
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < depth + p.channels; ++i) {
    (void)fq.admit(next++ % flows, 1.0, 0, s.provider_object_bytes);
  }
  double t = 0;
  return ns_per_call([&](std::uint64_t) {
    t += spacing;
    const auto a = fq.admit(next++ % flows, 1.0,
                            static_cast<common::SimDuration>(t),
                            s.provider_object_bytes);
    return static_cast<std::uint64_t>(a.wait);
  });
}

// Store holding the measured key count; PUTs overwrite and GETs hit
// random existing keys.
void replay_store(const ReplayShape& s, ReplayCosts& out) {
  hyrd::cloud::MemoryStore store;
  const std::string container = "hyrd-data";
  (void)store.create(container);
  const std::uint64_t keys = std::max<std::uint64_t>(1, s.store_keys);
  std::vector<std::string> names;
  names.reserve(keys);
  for (std::uint64_t i = 0; i < keys; ++i) names.push_back(object_name(i));
  const std::size_t size = std::max<std::size_t>(1, s.provider_object_bytes);
  const common::Buffer payload = filled(size, 7);
  for (const auto& name : names) (void)store.put(container, name, payload);
  common::Xoshiro256 rng(11);
  out.store_put_ns = ns_per_call([&](std::uint64_t) {
    return static_cast<std::uint64_t>(
        store.put(container, names[rng() % keys], payload).is_ok());
  });
  out.store_get_ns = ns_per_call([&](std::uint64_t) {
    auto r = store.get(container, names[rng() % keys]);
    return static_cast<std::uint64_t>(r.is_ok() ? r.value().size() : 0);
  });
}

// The envelope round trip every provider op makes (gcsapi/client.cpp).
double replay_envelope(const ReplayShape& s) {
  std::vector<hyrd::cloud::ObjectKey> keys;
  for (std::uint64_t i = 0; i < 1024; ++i) {
    keys.push_back({"hyrd-data", object_name(i)});
  }
  double put_credit = 0;
  return ns_per_call([&](std::uint64_t i) {
    put_credit += s.provider_put_share;
    const bool put = put_credit >= 1.0;
    if (put) put_credit -= 1.0;
    const auto op = put ? hyrd::cloud::OpKind::kPut : hyrd::cloud::OpKind::kGet;
    const auto encoded = hyrd::gcs::encode_op(op, keys[i % keys.size()], {});
    auto parsed = hyrd::gcs::parse_request(hyrd::gcs::serialize(encoded));
    if (!parsed.is_ok()) return std::uint64_t{0};
    auto decoded = hyrd::gcs::decode_op(parsed.value());
    return decoded.is_ok() ? decoded.value().key.name.size() : 0;
  });
}

// An event queue holding the measured number of pending tenants, each of
// which reschedules itself one think time later when stepped.
double replay_event_queue(const ReplayShape& s) {
  struct Bouncer final : hyrd::sim::EventHandler {
    common::Xoshiro256 rng;
    common::SimDuration mean = 0;
    void on_event(hyrd::sim::EventQueue& queue,
                  common::SimDuration now) override {
      queue.schedule_at(now + static_cast<common::SimDuration>(
                                  static_cast<double>(mean) *
                                  rng.exponential(1.0)),
                        this);
    }
  };
  hyrd::sim::EventQueue queue;
  std::vector<Bouncer> tenants(std::max<std::uint64_t>(1, s.pending_events));
  common::Xoshiro256 rng(13);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].rng = common::Xoshiro256(i + 1);
    tenants[i].mean = s.mean_think;
    queue.schedule_at(
        static_cast<common::SimDuration>(rng() % static_cast<std::uint64_t>(
                                                     s.mean_think + 1)),
        &tenants[i]);
  }
  return ns_per_call(
      [&](std::uint64_t) { return static_cast<std::uint64_t>(queue.step()); });
}

void replay_kernels(const ReplayShape& s, ReplayCosts& out) {
  const std::size_t size = std::max<std::size_t>(1, s.object_bytes);
  const common::Buffer object = filled(size, 17);
  out.crc32c_gbps =
      static_cast<double>(size) / ns_per_call([&](std::uint64_t) {
        return static_cast<std::uint64_t>(common::crc32c(object.span()));
      });
  common::Bytes dst(size);
  out.memcpy_gbps =
      static_cast<double>(size) / ns_per_call([&](std::uint64_t i) {
        std::memcpy(dst.data(), object.span().data(), size);
        return static_cast<std::uint64_t>(dst[i % size]);
      });

  // The stripe encode the erasure write path runs: the ReedSolomon codec
  // with m = 1 (HyRD's RAID5), fed in 256 KiB chunks into zeroed parity.
  const std::size_t k = s.stripe_k;
  const std::size_t m = s.stripe_m;
  const std::size_t shard = (size + k - 1) / k;
  const hyrd::erasure::ReedSolomon rs(k, m);
  std::vector<common::Bytes> data(k, common::Bytes(shard));
  for (std::size_t d = 0; d < k; ++d) {
    for (std::size_t b = 0; b < shard; ++b) {
      data[d][b] = static_cast<std::uint8_t>(b * 31 + d);
    }
  }
  std::vector<common::Bytes> parity(m, common::Bytes(shard));
  constexpr std::size_t kChunk = 256 * 1024;
  const double encode_ns = ns_per_call([&](std::uint64_t) {
    for (auto& p : parity) std::fill(p.begin(), p.end(), 0);
    for (std::size_t off = 0; off < shard; off += kChunk) {
      const std::size_t len = std::min(kChunk, shard - off);
      std::vector<common::ByteSpan> dv(k);
      for (std::size_t d = 0; d < k; ++d) {
        dv[d] = common::ByteSpan(data[d]).subspan(off, len);
      }
      std::vector<common::MutByteSpan> pv(m);
      for (std::size_t p = 0; p < m; ++p) {
        pv[p] = common::MutByteSpan(parity[p]).subspan(off, len);
      }
      (void)rs.encode_into(dv, pv);
    }
    return static_cast<std::uint64_t>(parity[0][0]);
  });
  out.encode_gbps = static_cast<double>(k * shard) / encode_ns;
  out.encode_ns_per_parity_byte = encode_ns / static_cast<double>(m * shard);
}

}  // namespace

ReplayCosts run_replays(const ReplayShape& shape) {
  ReplayCosts out;
  out.fq_admit_ns = replay_fair_queue(shape);
  replay_store(shape, out);
  out.envelope_ns = replay_envelope(shape);
  out.event_ns = replay_event_queue(shape);
  replay_kernels(shape, out);
  return out;
}

}  // namespace perfbench
