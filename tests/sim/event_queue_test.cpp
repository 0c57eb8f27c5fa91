// Discrete-event core contracts: dispatch order (time, then submission),
// cooperative cancellation (including the CancelScope bridge into the
// provider layer), virtual-time monotonicity, id reuse safety, the packing
// limits, and a differential run against a std::priority_queue model.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cloud/cancel.h"
#include "common/clock.h"
#include "common/rng.h"
#include "sim/event_queue.h"

namespace hyrd::sim {

// Reaches the queue's private sequence counter, key packing and slot table
// so the limit tests need neither 2^40 events nor 2^24 slots.
struct EventQueueTestPeer {
  static void set_next_seq(EventQueue& q, std::uint64_t seq) {
    q.next_seq_ = seq;
  }
  static std::uint64_t pack(std::uint64_t seq, std::uint64_t slot) {
    return EventQueue::pack(seq, slot);
  }
  static void set_generation(EventQueue& q, std::uint32_t slot,
                             std::uint32_t generation) {
    q.slots_.at(slot).generation = generation;
  }
};

namespace {

/// Appends its tag to a shared trace on every dispatch.
class Recorder final : public EventHandler {
 public:
  Recorder(int tag, std::vector<int>& trace) : tag_(tag), trace_(trace) {}
  void on_event(EventQueue&, common::SimDuration) override {
    trace_.push_back(tag_);
  }

 private:
  int tag_;
  std::vector<int>& trace_;
};

TEST(EventQueue, DispatchesInTimeOrder) {
  std::vector<int> trace;
  Recorder a(1, trace), b(2, trace), c(3, trace);
  EventQueue q;
  q.schedule_at(300, &c);
  q.schedule_at(100, &a);
  q.schedule_at(200, &b);
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 300);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.dispatched(), 3u);
}

TEST(EventQueue, EqualTimestampsDispatchInScheduleOrder) {
  // The stability contract the determinism test leans on: ties broken by
  // the monotone event id, i.e. submission order — never heap order.
  std::vector<int> trace;
  std::vector<Recorder> handlers;
  handlers.reserve(8);
  EventQueue q;
  for (int i = 0; i < 8; ++i) {
    handlers.emplace_back(i, trace);
    q.schedule_at(500, &handlers[i]);
  }
  q.run();
  EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, CancelledEventIsSkipped) {
  std::vector<int> trace;
  Recorder a(1, trace), b(2, trace);
  EventQueue q;
  const EventId ida = q.schedule_at(100, &a);
  q.schedule_at(200, &b);
  EXPECT_TRUE(q.cancel(ida));
  EXPECT_EQ(q.run(), 1u);  // only b dispatched
  EXPECT_EQ(trace, (std::vector<int>{2}));
  EXPECT_EQ(q.now(), 200);  // cancelled events don't advance the clock
}

TEST(EventQueue, CancelIsIdempotentAndRejectsUnknownOrDispatched) {
  std::vector<int> trace;
  Recorder a(1, trace);
  EventQueue q;
  const EventId id = q.schedule_at(50, &a);
  EXPECT_FALSE(q.cancel(kInvalidEvent));
  EXPECT_FALSE(q.cancel(id + 999));  // never issued
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  q.run();
  EXPECT_TRUE(trace.empty());

  const EventId id2 = q.schedule_at(60, &a);
  q.run();
  EXPECT_FALSE(q.cancel(id2));  // already dispatched
}

TEST(EventQueue, PastSchedulesClampToNowAndTimeIsMonotone) {
  struct Prober final : EventHandler {
    std::vector<common::SimDuration> seen;
    void on_event(EventQueue& q, common::SimDuration now) override {
      seen.push_back(now);
      if (seen.size() == 1) {
        q.schedule_at(now - 500, this);  // the past: must clamp to now
        q.schedule_in(-10, this);        // negative delay: same
      }
    }
  } p;
  EventQueue q;
  q.schedule_at(1000, &p);
  q.run();
  ASSERT_EQ(p.seen.size(), 3u);
  EXPECT_EQ(p.seen[0], 1000);
  EXPECT_EQ(p.seen[1], 1000);  // clamped, not 500
  EXPECT_EQ(p.seen[2], 1000);
  EXPECT_EQ(q.now(), 1000);
}

TEST(EventQueue, SelfReschedulingChainAdvancesVirtualTime) {
  // The tenant lifecycle shape: each dispatch schedules the next.
  struct Chain final : EventHandler {
    int steps = 0;
    void on_event(EventQueue& q, common::SimDuration now) override {
      if (++steps < 5) q.schedule_at(now + common::kMillisecond, this);
    }
  } chain;
  EventQueue q;
  q.schedule_at(0, &chain);
  EXPECT_EQ(q.run(), 5u);
  EXPECT_EQ(chain.steps, 5);
  EXPECT_EQ(q.now(), 4 * common::kMillisecond);
}

TEST(EventQueue, RunHonorsMaxEvents) {
  std::vector<int> trace;
  Recorder a(1, trace), b(2, trace), c(3, trace);
  EventQueue q;
  q.schedule_at(1, &a);
  q.schedule_at(2, &b);
  q.schedule_at(3, &c);
  EXPECT_EQ(q.run(2), 2u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
}

TEST(EventQueue, HandlerRunsUnderItsEventCancelScope) {
  // While a handler runs, its event's flag is the thread's CancelScope —
  // the same token SimProvider polls — and it reads "not cancelled" for a
  // normally dispatched event. Cancelling *another* pending event from
  // inside the handler must not disturb the installed scope.
  struct Prober final : EventHandler {
    EventId other = kInvalidEvent;
    bool saw_uncancelled = false;
    bool cancelled_other = false;
    void on_event(EventQueue& q, common::SimDuration) override {
      saw_uncancelled = !cloud::CancelScope::cancelled();
      if (other != kInvalidEvent) cancelled_other = q.cancel(other);
      saw_uncancelled = saw_uncancelled && !cloud::CancelScope::cancelled();
    }
  } p;
  std::vector<int> trace;
  Recorder victim(9, trace);
  EventQueue q;
  q.schedule_at(10, &p);
  p.other = q.schedule_at(20, &victim);
  q.run();
  EXPECT_TRUE(p.saw_uncancelled);
  EXPECT_TRUE(p.cancelled_other);
  EXPECT_TRUE(trace.empty());
  EXPECT_FALSE(cloud::CancelScope::cancelled());  // scope popped after run
}

TEST(EventQueue, DispatchedIdIsRefusedAfterItsSlotIsReused) {
  std::vector<int> trace;
  Recorder a(1, trace), b(2, trace);
  EventQueue q;
  const EventId first = q.schedule_at(10, &a);
  EXPECT_EQ(q.run(), 1u);
  const EventId second = q.schedule_at(20, &b);  // takes the freed slot
  EXPECT_NE(second, first);
  EXPECT_EQ(second & 0xffffffffu, first & 0xffffffffu);  // same slot
  EXPECT_FALSE(q.cancel(first));  // stale generation
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));

  // A cancelled event's id is just as dead once the slot is reused.
  const EventId third = q.schedule_at(30, &a);
  EXPECT_TRUE(q.cancel(third));
  EXPECT_EQ(q.run(), 0u);
  const EventId fourth = q.schedule_at(40, &b);
  EXPECT_FALSE(q.cancel(third));
  EXPECT_TRUE(q.cancel(fourth));
}

TEST(EventQueue, HandlerCancellingItsOwnEventSeesItsCancelScopeFlip) {
  struct SelfCancel final : EventHandler {
    EventId self = kInvalidEvent;
    bool before = true, first = false, second = true, after = false;
    void on_event(EventQueue& q, common::SimDuration) override {
      before = cloud::CancelScope::cancelled();
      first = q.cancel(self);
      second = q.cancel(self);
      after = cloud::CancelScope::cancelled();
    }
  } h;
  EventQueue q;
  h.self = q.schedule_at(5, &h);
  EXPECT_EQ(q.run(), 1u);  // it was running, so it still counts
  EXPECT_FALSE(h.before);
  EXPECT_TRUE(h.first);    // true exactly once...
  EXPECT_FALSE(h.second);  // ...and false on the repeat
  EXPECT_TRUE(h.after);
  EXPECT_FALSE(q.cancel(h.self));  // dispatched
  EXPECT_FALSE(cloud::CancelScope::cancelled());

  // The next dispatch starts with a clear flag.
  struct Probe final : EventHandler {
    bool cancelled = true;
    void on_event(EventQueue&, common::SimDuration) override {
      cancelled = cloud::CancelScope::cancelled();
    }
  } p;
  q.schedule_at(6, &p);
  q.run();
  EXPECT_FALSE(p.cancelled);
}

TEST(EventQueue, PendingCountsTheRunningEventUntilItsHandlerReturns) {
  struct Counter final : EventHandler {
    std::vector<std::size_t> seen;
    bool rescheduled = false;
    void on_event(EventQueue& q, common::SimDuration now) override {
      seen.push_back(q.pending());
      if (!rescheduled) {
        rescheduled = true;
        q.schedule_at(now + 1, this);
        seen.push_back(q.pending());
      }
    }
  } c;
  std::vector<int> trace;
  Recorder r(1, trace);
  EventQueue q;
  q.schedule_at(1, &c);
  q.schedule_at(2, &r);
  const EventId doomed = q.schedule_at(3, &r);
  EXPECT_TRUE(q.cancel(doomed));
  EXPECT_EQ(q.pending(), 3u);  // cancelled events count until reached
  q.run();
  // First dispatch: itself + r + doomed, then + its reschedule.
  // Second dispatch (t=2): r has run; itself + doomed remain.
  EXPECT_EQ(c.seen, (std::vector<std::size_t>{3, 4, 2}));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PackingLimitsThrowInsteadOfWrapping) {
  EXPECT_NO_THROW(EventQueueTestPeer::pack(EventQueue::kMaxScheduled - 1,
                                           EventQueue::kMaxPending - 1));
  EXPECT_THROW(EventQueueTestPeer::pack(0, EventQueue::kMaxPending),
               std::length_error);
  EXPECT_THROW(EventQueueTestPeer::pack(EventQueue::kMaxScheduled, 0),
               std::length_error);

  // End to end on the sequence limit: the last valid sequence number is
  // issued, the next schedule throws and leaves the queue untouched.
  std::vector<int> trace;
  Recorder a(1, trace), b(2, trace);
  EventQueue q;
  EventQueueTestPeer::set_next_seq(q, EventQueue::kMaxScheduled - 1);
  const EventId last = q.schedule_at(10, &a);
  EXPECT_NE(last, kInvalidEvent);
  EXPECT_THROW(q.schedule_at(5, &b), std::length_error);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(trace, (std::vector<int>{1}));
}

TEST(EventQueue, SlotWhoseGenerationWouldWrapIsRetired) {
  std::vector<int> trace;
  Recorder a(1, trace);
  EventQueue q;
  const EventId first = q.schedule_at(1, &a);  // slot 0
  EventQueueTestPeer::set_generation(q, 0, ~std::uint32_t{0});
  EXPECT_EQ(q.run(), 1u);
  EXPECT_FALSE(q.cancel(first));
  // Slot 0's generation wrapped, so it is never handed out again.
  const EventId next = q.schedule_at(2, &a);
  EXPECT_EQ(next & 0xffffffffu, 1u);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(trace, (std::vector<int>{1, 1}));
}

// The reference the queue must match event for event: a binary heap of
// (time, sequence) plus per-event state, with the documented contracts
// for clamping, cancellation and pending().
class ModelQueue {
 public:
  enum class State { kPending, kCancelled, kRunning, kDone };

  common::SimDuration now = 0;
  std::vector<State> state;  // by sequence number

  std::uint64_t schedule(common::SimDuration when) {
    heap_.emplace(when < now ? now : when, state.size());
    state.push_back(State::kPending);
    return state.size() - 1;
  }
  bool cancel(std::uint64_t seq) {
    State& s = state[seq];
    if (s == State::kPending) {
      s = State::kCancelled;
      return true;
    }
    if (s == State::kRunning && !running_cancelled) {
      running_cancelled = true;
      return true;
    }
    return false;
  }
  /// The next event to dispatch (marked running), or -1 when drained.
  std::int64_t begin_step() {
    while (!heap_.empty()) {
      const auto [when, seq] = heap_.top();
      heap_.pop();
      if (state[seq] == State::kCancelled) {
        state[seq] = State::kDone;
        continue;
      }
      now = when;
      state[seq] = State::kRunning;
      running_cancelled = false;
      return static_cast<std::int64_t>(seq);
    }
    return -1;
  }
  void end_step(std::uint64_t seq) { state[seq] = State::kDone; }
  [[nodiscard]] std::size_t pending(bool running) const {
    return heap_.size() + (running ? 1 : 0);
  }

  bool running_cancelled = false;

 private:
  using Item = std::pair<common::SimDuration, std::uint64_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap_;
};

// Drives EventQueue and ModelQueue with one random script. Every event gets
// its own handler, which knows its sequence number, so a dispatch can be
// checked against the model's choice exactly; handlers reschedule, cancel
// others and cancel themselves from inside on_event.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  void schedule(common::SimDuration when) {
    const std::uint64_t seq = model_.schedule(when);
    actors_.push_back({this, seq});
    ids_.push_back(queue_.schedule_at(when, &actors_.back()));
    ++scheduled_;
  }

  void cancel_random() {
    if (ids_.empty()) return;
    const std::uint64_t seq = rng_() % ids_.size();
    ASSERT_EQ(queue_.cancel(ids_[seq]), model_.cancel(seq)) << "seq " << seq;
  }

  // Schedules at now plus a small delta: equal timestamps are common and
  // negative deltas exercise the past-time clamp.
  void schedule_near() {
    const auto delta = static_cast<common::SimDuration>(rng_() % 8) - 2;
    schedule(model_.now + delta);
  }

  void act_outside() {
    switch (rng_() % 4) {
      case 0:
      case 1:
        schedule_near();
        break;
      case 2:
        cancel_random();
        break;
      default:
        step();
    }
  }

  void step() {
    const std::int64_t want = model_.begin_step();
    expected_ = want;
    ran_ = false;
    const bool stepped = queue_.step();
    ASSERT_EQ(stepped, want >= 0);
    if (want < 0) return;
    ASSERT_TRUE(ran_) << "seq " << want;
    model_.end_step(static_cast<std::uint64_t>(want));
    ASSERT_EQ(queue_.now(), model_.now);
    ASSERT_EQ(queue_.pending(), model_.pending(false));
  }

  void on_event(std::uint64_t seq, common::SimDuration now) {
    ran_ = true;
    ASSERT_EQ(static_cast<std::int64_t>(seq), expected_);
    ASSERT_EQ(now, model_.now);
    ASSERT_EQ(queue_.pending(), model_.pending(true));
    const int actions = static_cast<int>(rng_() % 4);
    for (int i = 0; i < actions; ++i) {
      switch (rng_() % 5) {
        case 0:
        case 1:
          schedule_near();
          break;
        case 2:
          cancel_random();
          break;
        case 3:
          ASSERT_EQ(queue_.cancel(ids_[seq]), model_.cancel(seq));
          break;
        default:
          ASSERT_EQ(queue_.cancel(ids_[seq] + (std::uint64_t{1} << 32)),
                    false);  // a generation never issued for this slot yet
      }
      ASSERT_EQ(cloud::CancelScope::cancelled(), model_.running_cancelled);
    }
  }

  void drain() {
    while (model_.pending(false) > 0) step();
    EXPECT_FALSE(queue_.step());
    EXPECT_EQ(queue_.pending(), 0u);
  }

  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

 private:
  struct Actor final : EventHandler {
    Actor(Differential* d, std::uint64_t s) : owner(d), seq(s) {}
    Differential* owner;
    std::uint64_t seq;
    void on_event(EventQueue&, common::SimDuration now) override {
      owner->on_event(seq, now);
    }
  };

  common::Xoshiro256 rng_;
  EventQueue queue_;
  ModelQueue model_;
  std::deque<Actor> actors_;  // stable addresses
  std::vector<EventId> ids_;  // by sequence number
  std::int64_t expected_ = -1;
  bool ran_ = false;
  std::uint64_t scheduled_ = 0;
};

TEST(EventQueue, DifferentialAgainstPriorityQueueModel) {
  Differential d(20261019);
  while (d.scheduled() < 120'000) {
    d.act_outside();
    ASSERT_FALSE(testing::Test::HasFatalFailure());
  }
  d.drain();
  ASSERT_FALSE(testing::Test::HasFatalFailure());
  EXPECT_GT(d.queue().dispatched(), 50'000u);
}

}  // namespace
}  // namespace hyrd::sim
