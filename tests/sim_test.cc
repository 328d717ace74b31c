#include <gtest/gtest.h>

#include <algorithm>

#include "sim/rate_server.h"

namespace smartssd::sim {
namespace {

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

}  // namespace
}  // namespace smartssd::sim
