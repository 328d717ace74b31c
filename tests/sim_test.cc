#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/rate_server.h"

namespace smartssd::sim {
namespace {

TEST(ClockTest, StartsAtZeroAndAdvances) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(5);
  EXPECT_EQ(clock.now(), 5u);
  clock.AdvanceTo(10);
  EXPECT_EQ(clock.now(), 10u);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0u);
}

TEST(RateServerTest, ServesImmediatelyWhenIdle) {
  RateServer server("s");
  EXPECT_EQ(server.Serve(100, 50), 150u);
  EXPECT_EQ(server.busy_time(), 50u);
  EXPECT_EQ(server.requests(), 1u);
}

TEST(RateServerTest, QueuesBackToBackRequests) {
  RateServer server("s");
  // Three requests all ready at t=0, 10 units each: FIFO completions.
  EXPECT_EQ(server.Serve(0, 10), 10u);
  EXPECT_EQ(server.Serve(0, 10), 20u);
  EXPECT_EQ(server.Serve(0, 10), 30u);
  EXPECT_EQ(server.busy_time(), 30u);
}

TEST(RateServerTest, IdleGapsDoNotAccrueBusyTime) {
  RateServer server("s");
  server.Serve(0, 10);
  server.Serve(100, 10);  // 90 units idle in between
  EXPECT_EQ(server.busy_time(), 20u);
  EXPECT_EQ(server.next_free(), 110u);
}

TEST(RateServerTest, TandemPipelineConvergesToBottleneck) {
  // Classic tandem queue: stage A 5 units/item, stage B 20 units/item.
  // For many items, completion approaches items * 20 (B is the
  // bottleneck), regardless of A.
  RateServer a("a");
  RateServer b("b");
  SimTime done = 0;
  constexpr int kItems = 1000;
  for (int i = 0; i < kItems; ++i) {
    const SimTime at_a = a.Serve(0, 5);
    done = b.Serve(at_a, 20);
  }
  EXPECT_GE(done, kItems * 20u);
  EXPECT_LE(done, kItems * 20u + 5u);
}

TEST(ParallelServerTest, LeastLoadedDispatch) {
  ParallelServer pool("cpu", 2);
  // Four tasks at t=0, 10 units: two cores -> finish at 10,10,20,20.
  EXPECT_EQ(pool.Serve(0, 10), 10u);
  EXPECT_EQ(pool.Serve(0, 10), 10u);
  EXPECT_EQ(pool.Serve(0, 10), 20u);
  EXPECT_EQ(pool.Serve(0, 10), 20u);
  EXPECT_EQ(pool.busy_time(), 40u);
  EXPECT_EQ(pool.drain_time(), 20u);
}

TEST(ParallelServerTest, ThroughputScalesWithWidth) {
  // N identical tasks across k servers finish in ceil(N/k) rounds.
  for (const int k : {1, 2, 4, 8}) {
    ParallelServer pool("cpu", k);
    SimTime done = 0;
    for (int i = 0; i < 64; ++i) {
      done = std::max(done, pool.Serve(0, 100));
    }
    EXPECT_EQ(pool.drain_time(), 100u * (64 / k));
    EXPECT_EQ(done, pool.drain_time());
  }
}

TEST(ParallelServerTest, SingleServerMatchesRateServer) {
  ParallelServer pool("one", 1);
  RateServer server("s");
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(pool.Serve(i * 3, 7), server.Serve(i * 3, 7));
  }
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  Clock clock;
  EventQueue queue(&clock);
  std::vector<int> order;
  queue.ScheduleAt(30, [&](SimTime) { order.push_back(3); });
  queue.ScheduleAt(10, [&](SimTime) { order.push_back(1); });
  queue.ScheduleAt(20, [&](SimTime) { order.push_back(2); });
  queue.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), 30u);
}

TEST(EventQueueTest, SameTimeEventsRunFifo) {
  Clock clock;
  EventQueue queue(&clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.ScheduleAt(7, [&order, i](SimTime) { order.push_back(i); });
  }
  queue.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  Clock clock;
  EventQueue queue(&clock);
  int fired = 0;
  queue.ScheduleAt(5, [&](SimTime now) {
    ++fired;
    queue.ScheduleAt(now + 5, [&](SimTime) { ++fired; });
  });
  queue.RunUntilEmpty();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(clock.now(), 10u);
}

}  // namespace
}  // namespace smartssd::sim
