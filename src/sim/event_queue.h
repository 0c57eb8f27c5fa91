// Discrete-event core of the scale-out engine: a 4-ary heap of events
// keyed on virtual nanoseconds, dispatched strictly in (time, submission)
// order on one OS thread.
//
// This replaces "concurrency = OS threads" with "concurrency = pending
// events": a simulated tenant is an EventHandler whose next wakeup sits in
// this heap, costing tens of bytes instead of a thread stack. The loop
// pops the earliest event, advances the virtual clock to it (never
// backwards — monotonicity is asserted), and steps the handler; the
// handler issues client ops under a common::VirtualScope, learns their
// virtual latency immediately (providers *compute* time, nothing sleeps),
// and schedules its own next wakeup. The shape is vitastor's
// event-loop-per-OSD turned inside out: one loop, many cheap actors.
//
// Ordering: events with equal timestamps dispatch in schedule() order
// (a monotone sequence number breaks ties), so runs are reproducible.
//
// Storage: a pending event is one 16-byte heap item {when, seq:40|slot:24}
// plus one 16-byte slot in a flat table (handler, generation, cancelled),
// recycled through a free list — no per-event allocation. An EventId is
// generation << 32 | slot; a slot's generation advances every time it is
// freed, so a stale id (dispatched or cancelled, slot since reused) never
// matches, and a slot whose generation would wrap is retired, never reused.
//
// Cancellation: cancel(id) marks a pending event's slot; the dispatcher
// frees marked events without running them. The running event's flag is
// one atomic member instead, installed as the thread's cloud::CancelScope
// while its handler runs — so provider-level cooperative cancellation (the
// same mechanism AsyncBatch stragglers use) composes with event-level
// cancellation without new machinery. (The flag cannot live in the slot:
// a handler that schedules may grow the slot table under it.)
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/clock.h"
#include "common/quad_heap.h"

namespace hyrd::sim {

class EventQueue;

/// Something that can be woken at a virtual instant. Handlers are borrowed,
/// never owned: the caller keeps them alive until their events have fired
/// or been cancelled.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_event(EventQueue& queue, common::SimDuration now) = 0;
};

/// Identifies one scheduled (not yet dispatched) event. Never reused.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  /// Pending events the packed heap key can address (24 slot bits), and
  /// events one queue can ever schedule (40 sequence bits). Scheduling past
  /// either limit throws std::length_error.
  static constexpr std::uint64_t kMaxPending = std::uint64_t{1} << 24;
  static constexpr std::uint64_t kMaxScheduled = std::uint64_t{1} << 40;

  /// Current virtual time: the timestamp of the latest dispatched event.
  [[nodiscard]] common::SimDuration now() const { return now_; }

  /// Scheduled events not yet dispatched or discarded: cancelled ones count
  /// until the dispatcher reaches them, the running one until its handler
  /// returns.
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  /// Schedules `handler` at virtual time `when`. Times in the past are
  /// clamped to now(): virtual time never runs backwards.
  EventId schedule_at(common::SimDuration when, EventHandler* handler);

  /// Schedules `handler` `delay` from now (negative delays clamp to 0).
  EventId schedule_in(common::SimDuration delay, EventHandler* handler);

  /// Cancels a pending event. Returns false when the id is unknown,
  /// already dispatched, or already cancelled. The handler is not invoked.
  bool cancel(EventId id);

  /// Dispatches the earliest pending event, skipping cancelled ones.
  /// Returns false when nothing was dispatched (queue empty or all
  /// remaining events cancelled).
  bool step();

  /// Runs until the queue drains or `max_events` were dispatched.
  /// Returns the number of events dispatched.
  std::uint64_t run(std::uint64_t max_events =
                        std::numeric_limits<std::uint64_t>::max());

 private:
  friend struct EventQueueTestPeer;

  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = kMaxPending - 1;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct HeapItem {
    common::SimDuration when;
    std::uint64_t key;  // seq << kSlotBits | slot; seq is monotone
    friend bool operator<(const HeapItem& a, const HeapItem& b) {
      if (a.when != b.when) return a.when < b.when;
      return a.key < b.key;
    }
  };
  struct Slot {
    EventHandler* handler = nullptr;  // null while the slot is free
    std::uint32_t generation = 1;     // of the current or next occupant
    bool cancelled = false;
  };

  /// The heap key for event `seq` in `slot`; throws past either limit.
  static std::uint64_t pack(std::uint64_t seq, std::uint64_t slot);
  void release(std::uint32_t slot);

  common::QuadHeap<HeapItem> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // LIFO: the warmest slot first
  std::size_t live_ = 0;
  std::uint32_t running_ = kNoSlot;  // slot of the event being dispatched
  std::atomic<bool> running_cancelled_{false};
  common::SimDuration now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace hyrd::sim
