#include "sim/event_queue.h"

#include <cassert>
#include <stdexcept>

#include "cloud/cancel.h"

namespace hyrd::sim {

std::uint64_t EventQueue::pack(std::uint64_t seq, std::uint64_t slot) {
  if (slot >= kMaxPending) {
    throw std::length_error("EventQueue: more than 2^24 pending events");
  }
  if (seq >= kMaxScheduled) {
    throw std::length_error("EventQueue: more than 2^40 scheduled events");
  }
  return seq << kSlotBits | slot;
}

EventId EventQueue::schedule_at(common::SimDuration when,
                                EventHandler* handler) {
  assert(handler != nullptr);
  if (when < now_) when = now_;
  const std::uint64_t slot = free_.empty() ? slots_.size() : free_.back();
  const std::uint64_t key = pack(next_seq_, slot);  // throws before mutating
  if (free_.empty()) {
    slots_.emplace_back();
  } else {
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.handler = handler;
  heap_.push({when, key});
  ++next_seq_;
  ++live_;
  return EventId{s.generation} << 32 | slot;
}

EventId EventQueue::schedule_in(common::SimDuration delay,
                                EventHandler* handler) {
  return schedule_at(delay > 0 ? now_ + delay : now_, handler);
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot = id & 0xffffffffu;
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.handler == nullptr || s.generation != id >> 32) return false;
  // Flag, don't free: the heap item still references the slot. The running
  // event's flag is the installed CancelScope of the work it is doing.
  if (slot == running_) {
    return !running_cancelled_.exchange(true, std::memory_order_acq_rel);
  }
  const bool was = s.cancelled;
  s.cancelled = true;
  return !was;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.handler = nullptr;
  s.cancelled = false;
  --live_;
  // A wrapped generation could reissue an old id: retire the slot instead.
  if (++s.generation != 0) free_.push_back(slot);
}

bool EventQueue::step() {
  assert(running_ == kNoSlot && "step() is not reentrant");
  while (!heap_.empty()) {
    const HeapItem item = heap_.top();
    heap_.pop();
    const auto slot = static_cast<std::uint32_t>(item.key & kSlotMask);
    if (slots_[slot].cancelled) {
      release(slot);
      continue;
    }
    assert(item.when >= now_ && "virtual time must be monotonic");
    now_ = item.when;
    ++dispatched_;
    EventHandler* handler = slots_[slot].handler;
    running_ = slot;
    running_cancelled_.store(false, std::memory_order_relaxed);
    // Frees the slot even if the handler throws; the event was dispatched.
    struct Finish {
      EventQueue* q;
      ~Finish() {
        q->release(q->running_);
        q->running_ = kNoSlot;
      }
    } finish{this};
    // The running flag doubles as the cooperative-cancellation token for
    // everything the handler does: a provider op issued from this step
    // aborts exactly like an AsyncBatch straggler would.
    cloud::CancelScope scope(&running_cancelled_);
    handler->on_event(*this, now_);
    return true;
  }
  return false;
}

std::uint64_t EventQueue::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace hyrd::sim
