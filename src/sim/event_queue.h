#ifndef SMARTSSD_SIM_EVENT_QUEUE_H_
#define SMARTSSD_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/macros.h"
#include "common/units.h"
#include "sim/clock.h"

namespace smartssd::sim {

// Minimal discrete-event scheduler. The streaming data paths use the
// RateServer recurrence directly; the event queue drives what is
// genuinely event-driven — WorkloadScheduler's interleaving of
// concurrent queries on one database.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime now)>;

  explicit EventQueue(Clock* clock) : clock_(clock) {
    SMARTSSD_CHECK(clock != nullptr);
  }
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(EventQueue);

  // Schedules `fn` to run at absolute virtual time `when` (>= now).
  // Events at equal times run in scheduling order.
  void ScheduleAt(SimTime when, Callback fn) {
    SMARTSSD_CHECK_GE(when, clock_->now());
    heap_.push(Event{when, next_seq_++, std::move(fn)});
  }

  // Runs the earliest event, advancing the clock to its time. Returns
  // false if there was nothing to run.
  bool RunOne() {
    if (heap_.empty()) return false;
    Event e = heap_.top();
    heap_.pop();
    clock_->AdvanceTo(e.when);
    e.fn(e.when);
    return true;
  }

  // Runs events until the queue drains.
  void RunUntilEmpty() {
    while (RunOne()) {
    }
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // tie-breaker: FIFO among same-time events
    Callback fn;

    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  Clock* clock_;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
};

}  // namespace smartssd::sim

#endif  // SMARTSSD_SIM_EVENT_QUEUE_H_
