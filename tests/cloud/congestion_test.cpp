// The bounded-capacity fair queue (cloud/congestion.h): slot queueing,
// the depth-cap 429, start-time-fair-queuing pacing, and the SimProvider
// integration (only VirtualScope traffic is subject to it).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "cloud/congestion.h"
#include "cloud/profiles.h"
#include "cloud/provider.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/virtual_time.h"

namespace hyrd::cloud {
namespace {

CongestionParams narrow(std::size_t channels, std::size_t depth = 250'000) {
  return {.channels = channels,
          .per_op_service_ms = 10.0,
          .service_mbps = 200.0,
          .max_queue_depth = depth};
}

constexpr common::SimDuration kTenMs = 10 * common::kMillisecond;

TEST(FairQueue, UncontendedOpsPassWithZeroWait) {
  FairQueue q(narrow(2));
  // Distinct tenants, free slots: no queueing, no pacing.
  EXPECT_EQ(q.admit(1, 1.0, 0, 0).wait, 0);
  EXPECT_EQ(q.admit(2, 1.0, 0, 0).wait, 0);
  EXPECT_EQ(q.stats().admitted, 2u);
  EXPECT_EQ(q.stats().queued, 0u);
}

TEST(FairQueue, SingleChannelQueuesFifo) {
  FairQueue q(narrow(1));
  EXPECT_EQ(q.admit(1, 1.0, 0, 0).wait, 0);
  EXPECT_EQ(q.admit(2, 1.0, 0, 0).wait, kTenMs);
  EXPECT_EQ(q.admit(3, 1.0, 0, 0).wait, 2 * kTenMs);
  EXPECT_EQ(q.stats().queued, 2u);
  EXPECT_EQ(q.stats().max_wait, 2 * kTenMs);
}

TEST(FairQueue, ServiceTimeChargesBytes) {
  FairQueue q(narrow(1));
  // 2 MB at 200 MB/s = 10 ms on top of the 10 ms per-op cost.
  EXPECT_EQ(q.service_time(2'000'000), 2 * kTenMs);
  EXPECT_EQ(q.service_time(0), kTenMs);
}

TEST(FairQueue, DepthCapRejectsWithThrottleStat) {
  FairQueue q(narrow(1, /*depth=*/2));
  EXPECT_TRUE(q.admit(1, 1.0, 0, 0).admitted);  // runs, not waiting
  EXPECT_TRUE(q.admit(2, 1.0, 0, 0).admitted);  // waiting (depth 1)
  EXPECT_TRUE(q.admit(3, 1.0, 0, 0).admitted);  // waiting (depth 2)
  EXPECT_FALSE(q.admit(4, 1.0, 0, 0).admitted);
  EXPECT_EQ(q.stats().throttled, 1u);
  EXPECT_EQ(q.stats().peak_depth, 2u);

  // Once virtual time passes the backlog's begin times, admission resumes.
  EXPECT_TRUE(q.admit(4, 1.0, 3 * kTenMs, 0).admitted);
}

TEST(FairQueue, HotFlowSelfQueuesWhileLightFlowPassesThrough) {
  // Five free channels, one tenant bursting 4 ops at t=0: pacing gates
  // each of its ops behind its own flow tag (begins 0/10/20/30 ms despite
  // the idle slots), so a light tenant arriving at the same instant finds
  // a free slot and starts immediately — the starvation-prevention
  // property one hot tenant must not defeat.
  FairQueue q(narrow(5));
  common::SimDuration hot_wait = 0;
  for (int i = 0; i < 4; ++i) hot_wait += q.admit(7, 1.0, 0, 0).wait;
  EXPECT_EQ(hot_wait, (1 + 2 + 3) * kTenMs);  // begins 0, 10, 20, 30 ms
  EXPECT_EQ(q.admit(8, 1.0, 0, 0).wait, 0);   // light flow: untouched
}

TEST(FairQueue, HigherWeightMeansLessSelfQueueing) {
  FairQueue heavy(narrow(4));
  FairQueue light(narrow(4));
  common::SimDuration w4 = 0, w1 = 0;
  for (int i = 0; i < 4; ++i) {
    w4 += heavy.admit(7, 4.0, 0, 0).wait;
    w1 += light.admit(7, 1.0, 0, 0).wait;
  }
  // Weight 4 advances its tag by service/4 per op: a quarter the pacing.
  EXPECT_LT(w4, w1);
  EXPECT_EQ(w4, (1 + 2 + 3) * kTenMs / 4);
}

TEST(FairQueue, LateArrivalsNeverRewindState) {
  FairQueue q(narrow(1));
  EXPECT_EQ(q.admit(1, 1.0, 5 * kTenMs, 0).wait, 0);
  // An op arriving "late" (failover chain) still queues behind the slot.
  const auto a = q.admit(2, 1.0, 0, 0);
  EXPECT_EQ(a.wait, 6 * kTenMs);  // slot busy until t=60ms
}

TEST(SimProviderCongestion, OnlyVirtualScopeTrafficIsSubject) {
  SimProvider provider(aliyun_profile(), 42);
  provider.set_congestion(narrow(1));
  ASSERT_TRUE(provider.congestion_enabled());
  ASSERT_TRUE(provider.create("c").status.is_ok());

  // No VirtualScope: legacy path, the queue never sees the op.
  ASSERT_TRUE(provider.put({"c", "legacy"}, common::Buffer::of("x")).status.is_ok());
  EXPECT_EQ(provider.congestion_stats().admitted, 0u);

  // Under a scope the same op is admitted (and the wait lands in latency).
  {
    common::VirtualScope scope({.now = 0, .tenant = 1, .weight = 1.0});
    ASSERT_TRUE(provider.put({"c", "sim"}, common::Buffer::of("y")).status.is_ok());
  }
  EXPECT_EQ(provider.congestion_stats().admitted, 1u);
}

TEST(SimProviderCongestion, OverloadReturns429AndCountsThrottled) {
  SimProvider provider(aliyun_profile(), 42);
  provider.set_congestion(narrow(1, /*depth=*/1));
  ASSERT_TRUE(provider.create("c").status.is_ok());

  common::VirtualScope scope({.now = 0, .tenant = 5, .weight = 1.0});
  OpResult last;
  int throttled = 0;
  for (int i = 0; i < 4; ++i) {
    last = provider.put({"c", std::string("o").append(std::to_string(i))},
                        common::Buffer::of("z"));
    if (!last.status.is_ok()) ++throttled;
  }
  EXPECT_GT(throttled, 0);
  EXPECT_EQ(last.status.code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(provider.counters().throttled, static_cast<std::uint64_t>(throttled));
  // Throttled ops never reach the store.
  EXPECT_EQ(provider.object_count(), 4u - static_cast<unsigned>(throttled));
}

TEST(SimProviderCongestion, QueueingDelayIsVisibleInOpLatency) {
  // Twin providers, same seed: the only difference is the installed queue.
  SimProvider free_p(aliyun_profile(), 99);
  SimProvider queued_p(aliyun_profile(), 99);
  queued_p.set_congestion(narrow(1));
  ASSERT_TRUE(free_p.create("c").status.is_ok());
  ASSERT_TRUE(queued_p.create("c").status.is_ok());

  common::SimDuration lat_free = 0, lat_queued = 0;
  {
    common::VirtualScope scope({.now = 0, .tenant = 1, .weight = 1.0});
    for (int i = 0; i < 3; ++i) {
      lat_free = free_p.put({"c", "o"}, common::Buffer::of("x")).latency;
      // Distinct tenants so pacing doesn't apply: pure slot queueing.
      common::VirtualScope inner(
          {.now = 0, .tenant = 10 + static_cast<std::uint64_t>(i),
           .weight = 1.0});
      lat_queued = queued_p.put({"c", "o"}, common::Buffer::of("x")).latency;
    }
  }
  // Third op on the single-channel provider carries >= 2 service times of
  // queueing delay on top of the identically-seeded base latency.
  EXPECT_GE(lat_queued, lat_free + 2 * kTenMs);
}

// The fair queue as it was before expiry-ordered tag retirement: every 4096
// admits it scans the whole tag map. Kept verbatim (minus metrics and
// spans) as the oracle the heap-based retirement must match bit for bit.
class ScanFairQueue {
 public:
  explicit ScanFairQueue(CongestionParams params) : params_(params) {
    if (params_.channels == 0) params_.channels = 1;
    slot_free_.assign(params_.channels, 0);
  }

  common::SimDuration service_time(std::uint64_t bytes) const {
    double ms = params_.per_op_service_ms;
    if (bytes > 0 && params_.service_mbps > 0) {
      ms += static_cast<double>(bytes) / (params_.service_mbps * 1e6) * 1e3;
    }
    return common::from_ms(ms);
  }

  std::size_t depth_at(common::SimDuration now) {
    prune(now);
    return waiting_.size();
  }

  FairQueue::Admission admit(std::uint64_t tenant, double weight,
                             common::SimDuration arrival,
                             std::uint64_t bytes) {
    prune(arrival);
    if (waiting_.size() >= params_.max_queue_depth) {
      ++stats_.throttled;
      return {.admitted = false, .wait = 0};
    }
    const common::SimDuration service = service_time(bytes);
    if (weight <= 0.0) weight = 1.0;
    common::SimDuration gate = arrival;
    if (auto it = flow_tag_.find(tenant); it != flow_tag_.end()) {
      gate = std::max(gate, it->second);
    }
    auto slot = std::min_element(slot_free_.begin(), slot_free_.end());
    const common::SimDuration begin = std::max(gate, *slot);
    *slot = begin + service;
    flow_tag_[tenant] = begin + static_cast<common::SimDuration>(
                                    static_cast<double>(service) / weight);
    const common::SimDuration wait = begin - arrival;
    ++stats_.admitted;
    if (wait > 0) {
      ++stats_.queued;
      waiting_.push(begin);
      stats_.peak_depth = std::max(stats_.peak_depth, waiting_.size());
      stats_.total_wait += wait;
      stats_.max_wait = std::max(stats_.max_wait, wait);
    }
    if (++admits_since_prune_ >= 4096) {
      admits_since_prune_ = 0;
      for (auto it = flow_tag_.begin(); it != flow_tag_.end();) {
        it = it->second <= arrival ? flow_tag_.erase(it) : std::next(it);
      }
    }
    return {.admitted = true, .wait = wait};
  }

  const CongestionStats& stats() const { return stats_; }
  std::size_t tagged_flows() const { return flow_tag_.size(); }

 private:
  void prune(common::SimDuration arrival) {
    while (!waiting_.empty() && waiting_.top() <= arrival) waiting_.pop();
  }

  CongestionParams params_;
  CongestionStats stats_;
  std::vector<common::SimDuration> slot_free_;
  std::priority_queue<common::SimDuration, std::vector<common::SimDuration>,
                      std::greater<>>
      waiting_;
  std::unordered_map<std::uint64_t, common::SimDuration> flow_tag_;
  std::uint64_t admits_since_prune_ = 0;
};

bool same_stats(const CongestionStats& a, const CongestionStats& b) {
  return a.admitted == b.admitted && a.queued == b.queued &&
         a.throttled == b.throttled && a.total_wait == b.total_wait &&
         a.max_wait == b.max_wait && a.peak_depth == b.peak_depth;
}

TEST(FairQueue, ExpiryRetirementMatchesFullScanOracle) {
  // 4 slots x 10 ms service = 400 ops/s of virtual capacity and a depth
  // cap of 64: alternating overload and underload phases fill the queue to
  // the cap (429s) and drain it again, so flows go backlogged, retire and
  // come back across many 4096-admit retirement passes.
  const CongestionParams params = narrow(4, 64);
  FairQueue q(params);
  ScanFairQueue oracle(params);
  common::Xoshiro256 rng(20240611);
  const double weights[] = {0.5, 1.0, 2.0, 4.0, 0.0};
  common::SimDuration clock = 0;
  std::uint64_t late = 0;
  constexpr int kAdmits = 24'000;
  for (int i = 0; i < kAdmits; ++i) {
    // Arrivals on a whole-millisecond grid and half the ops payload-free
    // (service exactly 10 ms): tags then often land exactly on a later
    // arrival, the `tag <= arrival` boundary retirement must get right.
    const bool overload = (i / 3000) % 2 == 0;
    clock += static_cast<common::SimDuration>(rng() % (overload ? 3 : 10)) *
             common::kMillisecond;
    common::SimDuration arrival = clock;
    if (rng() % 100 < 15) {  // a late failover arrival
      arrival = std::max<common::SimDuration>(
          0, clock - static_cast<common::SimDuration>(rng() % 200) *
                         common::kMillisecond);
      ++late;
    }
    const std::uint64_t tenant = rng() % 50 == 0 ? ~0ull : rng() % 300;
    const double weight = weights[rng() % 5];
    const std::uint64_t bytes = rng() % 2 == 0 ? 0 : rng() % 8192;
    const auto got = q.admit(tenant, weight, arrival, bytes);
    const auto want = oracle.admit(tenant, weight, arrival, bytes);
    ASSERT_EQ(got.admitted, want.admitted) << "admit " << i;
    ASSERT_EQ(got.wait, want.wait) << "admit " << i;
    ASSERT_TRUE(same_stats(q.stats(), oracle.stats())) << "admit " << i;
    if (i % 97 == 0) {
      ASSERT_EQ(q.depth_at(clock), oracle.depth_at(clock)) << "admit " << i;
    }
    ASSERT_EQ(q.tagged_flows(), oracle.tagged_flows()) << "admit " << i;
    ASSERT_EQ(q.pending_retirements(), q.tagged_flows()) << "admit " << i;
  }
  EXPECT_GT(late, 1000u);
  EXPECT_GT(q.stats().throttled, 0u);
  EXPECT_GT(q.stats().admitted, 4u * 4096u);

  // Drain: arrivals an hour past every tag, one service time apart (a
  // free slot each time), each from a new flow and with a weight so large
  // that its tag equals its arrival. The next retirement pass then finds
  // every tag expired, the one just assigned included.
  const common::SimDuration service = q.service_time(0);
  common::SimDuration t = clock + 3600 * common::kSecond;
  bool drained = false;
  for (int i = 0; i < 4096 && !drained; ++i, t += service) {
    const auto got = q.admit(1000 + i, 1e18, t, 0);
    const auto want = oracle.admit(1000 + i, 1e18, t, 0);
    ASSERT_EQ(got.wait, 0);
    ASSERT_EQ(want.wait, 0);
    drained = q.tagged_flows() == 0;
  }
  ASSERT_TRUE(drained);
  EXPECT_EQ(q.pending_retirements(), 0u);
  EXPECT_EQ(oracle.tagged_flows(), 0u);
  EXPECT_TRUE(same_stats(q.stats(), oracle.stats()));
  EXPECT_EQ(q.depth_at(t), oracle.depth_at(t));
}

TEST(FairQueue, FlowTableAtTenThousandFlowsMatchesFullScanOracle) {
  // The same oracle at table scale: ~12 000 flow ids, among them 0, ~0
  // (the repair flow), ~0 - 1 and two families that share all their low
  // bits, so the flow table grows through several doublings and erases
  // long runs of neighbours at once. Each cycle is an overload burst that
  // leaves ~10^4 flows backlogged (and hits the depth cap) followed by a
  // slow phase in which the backlog drains and retirement empties the
  // table again; five cycles cross more than 50 retirement rounds.
  const CongestionParams params = narrow(8, 1u << 15);
  FairQueue q(params);
  ScanFairQueue oracle(params);
  std::vector<std::uint64_t> ids = {0, ~0ull, ~0ull - 1};
  for (std::uint64_t i = 1; i <= 4000; ++i) {
    ids.push_back(i << 32);
    ids.push_back(i << 48 | 0x5a5a);
    ids.push_back(common::SplitMix64(i).next());
  }
  common::Xoshiro256 rng(77);
  const double weights[] = {0.5, 1.0, 2.0, 4.0, 0.0};
  common::SimDuration clock = 0;
  std::size_t most_tagged = 0;
  constexpr int kCycle = 52'000;
  constexpr int kAdmits = 5 * kCycle;
  for (int i = 0; i < kAdmits; ++i) {
    const bool overload = i % kCycle < 40'000;
    clock += overload ? static_cast<common::SimDuration>(rng() % 100) *
                            common::kMicrosecond
                      : static_cast<common::SimDuration>(rng() % 20) *
                            common::kMillisecond;
    common::SimDuration arrival = clock;
    if (rng() % 10 == 0) {  // a late failover arrival
      arrival = std::max<common::SimDuration>(
          0, clock - static_cast<common::SimDuration>(rng() % 200) *
                         common::kMillisecond);
    }
    const std::uint64_t tenant = ids[rng() % ids.size()];
    const double weight = weights[rng() % 5];
    const std::uint64_t bytes = rng() % 2 == 0 ? 0 : rng() % 8192;
    const auto got = q.admit(tenant, weight, arrival, bytes);
    const auto want = oracle.admit(tenant, weight, arrival, bytes);
    ASSERT_EQ(got.admitted, want.admitted) << "admit " << i;
    ASSERT_EQ(got.wait, want.wait) << "admit " << i;
    ASSERT_EQ(q.tagged_flows(), oracle.tagged_flows()) << "admit " << i;
    ASSERT_EQ(q.pending_retirements(), q.tagged_flows()) << "admit " << i;
    most_tagged = std::max(most_tagged, q.tagged_flows());
    if (i % 1009 == 0) {
      ASSERT_TRUE(same_stats(q.stats(), oracle.stats())) << "admit " << i;
      ASSERT_EQ(q.depth_at(clock), oracle.depth_at(clock)) << "admit " << i;
    }
  }
  EXPECT_TRUE(same_stats(q.stats(), oracle.stats()));
  EXPECT_GE(most_tagged, 10'000u);
  EXPECT_GT(q.stats().throttled, 0u);
  EXPECT_GE(q.stats().admitted, 50u * 4096u);

  // Everything retires once arrivals pass every tag.
  const common::SimDuration service = q.service_time(0);
  common::SimDuration t = clock + 3600 * common::kSecond;
  for (int i = 0; i < 4096 && q.tagged_flows() > 0; ++i, t += service) {
    ASSERT_EQ(q.admit(ids[i], 1e18, t, 0).wait,
              oracle.admit(ids[i], 1e18, t, 0).wait);
  }
  EXPECT_EQ(q.tagged_flows(), 0u);
  EXPECT_EQ(oracle.tagged_flows(), 0u);
  EXPECT_EQ(q.pending_retirements(), 0u);
}

TEST(FairQueue, DepthCapBoundaryAdmitsExactlyMaxQueueDepthWaiters) {
  // The cap counts *waiters*, not in-service requests: with C channels and
  // depth D, exactly C + D simultaneous arrivals are admitted and the
  // (C + D + 1)-th is the first 429. Guards the off-by-one at the
  // `waiting >= max_queue_depth` boundary.
  constexpr std::size_t kChannels = 2;
  constexpr std::size_t kDepth = 5;
  FairQueue q(narrow(kChannels, kDepth));
  for (std::size_t i = 0; i < kChannels + kDepth; ++i) {
    EXPECT_TRUE(q.admit(100 + i, 1.0, 0, 0).admitted) << "arrival " << i;
  }
  EXPECT_EQ(q.stats().peak_depth, kDepth);
  EXPECT_EQ(q.stats().throttled, 0u);
  // One more at the same instant: the queue is exactly full.
  EXPECT_FALSE(q.admit(999, 1.0, 0, 0).admitted);
  EXPECT_EQ(q.stats().throttled, 1u);
  EXPECT_EQ(q.stats().peak_depth, kDepth);  // never exceeded the cap
}

}  // namespace
}  // namespace hyrd::cloud
