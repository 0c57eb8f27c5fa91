#include "cloud/congestion.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyrd::cloud {

namespace {

// Registry handles for the fair-queue plane, resolved once.
struct FqMetrics {
  obs::Counter admitted =
      obs::MetricsRegistry::global().counter("cloud.fq.admitted");
  obs::Counter queued =
      obs::MetricsRegistry::global().counter("cloud.fq.queued");
  obs::Counter throttled =
      obs::MetricsRegistry::global().counter("cloud.fq.throttled");
  obs::Counter wait_ns =
      obs::MetricsRegistry::global().counter("cloud.fq.wait_ns");
};

FqMetrics& fq_metrics() {
  static FqMetrics m;
  return m;
}

}  // namespace

std::size_t FairQueue::FlowTable::home(std::uint64_t flow) const {
  // Fibonacci hashing: the top bits of the product depend on every bit of
  // the id, so ids that share their low bits still spread.
  return static_cast<std::size_t>((flow * 0x9e3779b97f4a7c15ull) >> shift_);
}

std::size_t FairQueue::FlowTable::locate(std::uint64_t flow) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(flow);
  while (slots_[i].tag != kEmpty && slots_[i].flow != flow) i = (i + 1) & mask;
  return i;
}

void FairQueue::FlowTable::grow() {
  const bool first = slots_.empty();
  std::vector<Entry> old(first ? 16 : 2 * slots_.size());
  old.swap(slots_);
  shift_ = first ? 64 - 4 : shift_ - 1;
  for (const Entry& e : old) {
    if (e.tag != kEmpty) slots_[locate(e.flow)] = e;
  }
}

common::SimDuration& FairQueue::FlowTable::find_or_insert(
    std::uint64_t flow, common::SimDuration init, bool& fresh) {
  std::size_t i = slots_.empty() ? 0 : locate(flow);
  fresh = slots_.empty() || slots_[i].tag == kEmpty;
  if (fresh) {
    assert(init != kEmpty && "the empty marker is not a valid tag");
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      grow();
      i = locate(flow);
    }
    slots_[i] = {flow, init};
    ++size_;
  }
  return slots_[i].tag;
}

common::SimDuration FairQueue::FlowTable::retire_if_expired(
    std::uint64_t flow, common::SimDuration now) {
  const std::size_t i = locate(flow);
  const common::SimDuration tag = slots_[i].tag;
  assert(tag != kEmpty && "every heap entry has its flow");
  if (tag <= now) erase_at(i);
  return tag;
}

void FairQueue::FlowTable::erase_at(std::size_t i) {
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, entry], so no tombstones.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].tag != kEmpty;
       j = (j + 1) & mask) {
    if (((j - home(slots_[j].flow)) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i].tag = kEmpty;
  --size_;
}

FairQueue::FairQueue(CongestionParams params) : params_(params) {
  if (params_.channels == 0) params_.channels = 1;
  slot_free_.assign(params_.channels, 0);
}

common::SimDuration FairQueue::service_time(std::uint64_t bytes) const {
  double ms = params_.per_op_service_ms;
  if (bytes > 0 && params_.service_mbps > 0) {
    ms += static_cast<double>(bytes) / (params_.service_mbps * 1e6) * 1e3;
  }
  return common::from_ms(ms);
}

void FairQueue::prune(common::SimDuration arrival) {
  while (!waiting_.empty() && waiting_.top() <= arrival) waiting_.pop();
}

std::size_t FairQueue::depth_at(common::SimDuration now) {
  prune(now);
  return waiting_.size();
}

FairQueue::Admission FairQueue::admit(std::uint64_t tenant, double weight,
                                      common::SimDuration arrival,
                                      std::uint64_t bytes) {
  prune(arrival);
  if (waiting_.size() >= params_.max_queue_depth) {
    ++stats_.throttled;
    fq_metrics().throttled.inc();
    if (obs::trace_active()) {
      obs::TraceSpan span;
      span.name = "throttle429";
      span.cat = "cloud";
      span.tid = tenant;
      span.ts = arrival;
      span.arg("depth", static_cast<long long>(waiting_.size()));
      obs::emit(std::move(span));
    }
    return {.admitted = false, .wait = 0};
  }

  const common::SimDuration service = service_time(bytes);
  if (weight <= 0.0) weight = 1.0;

  // Per-flow pacing gate: a flow past its weighted share waits on its own
  // tag even when a slot is free, so one hot tenant cannot starve the rest.
  // A flow without a tag is inserted at `arrival`, which gates nothing.
  bool fresh = false;
  common::SimDuration& tag = flows_.find_or_insert(tenant, arrival, fresh);
  const common::SimDuration gate = std::max(arrival, tag);

  auto slot = std::min_element(slot_free_.begin(), slot_free_.end());
  const common::SimDuration begin = std::max(gate, *slot);
  *slot = begin + service;
  tag = begin + static_cast<common::SimDuration>(
                    static_cast<double>(service) / weight);
  if (fresh) tag_expiry_.push({tag, tenant});

  const common::SimDuration wait = begin - arrival;
  ++stats_.admitted;
  fq_metrics().admitted.inc();
  if (wait > 0) {
    fq_metrics().queued.inc();
    fq_metrics().wait_ns.add(static_cast<std::uint64_t>(wait));
    ++stats_.queued;
    waiting_.push(begin);
    stats_.peak_depth = std::max(stats_.peak_depth, waiting_.size());
    stats_.total_wait += wait;
    stats_.max_wait = std::max(stats_.max_wait, wait);
  }

  // The tag table must track backlogged flows, not every tenant ever seen:
  // at 10^6 closed-loop tenants an unretired table is hundreds of MB. Tags at
  // or behind the current arrival are inert (gate falls back to arrival).
  // Every 4096 admits, pop the heap keys <= arrival (a key never exceeds
  // its flow's tag, since tags only grow): erase the flow if its tag is
  // <= arrival too, else re-key it. That erases exactly what a full scan
  // would, at the same moments, so gates match even for late arrivals.
  if (++admits_since_retire_ >= 4096) {
    admits_since_retire_ = 0;
    while (!tag_expiry_.empty() && tag_expiry_.top().key <= arrival) {
      const std::uint64_t expired = tag_expiry_.top().flow;
      tag_expiry_.pop();
      const common::SimDuration tag_now =
          flows_.retire_if_expired(expired, arrival);
      if (tag_now > arrival) tag_expiry_.push({tag_now, expired});
    }
  }
  return {.admitted = true, .wait = wait};
}

}  // namespace hyrd::cloud
