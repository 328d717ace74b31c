// WorkloadScheduler end-to-end: interleaved queries must keep every
// correctness property the blocking executor has (byte-identical
// results, deterministic virtual timelines, clean fault fallback) while
// actually overlapping on the simulated resources — the pair-span and
// grant-parking tests pin the concurrency down.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/workload.h"
#include "sim/fault_injector.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace smartssd {
namespace {

using engine::CompletedQuery;
using engine::ExecutionTarget;
using engine::kMaxQueriesInFlight;
using engine::WorkloadQueryConfig;
using engine::WorkloadScheduler;

constexpr double kSf = 0.005;  // ~30k LINEITEM rows: fast but multi-page

WorkloadQueryConfig Q6On(const std::string& table, ExecutionTarget target,
                         const std::string& client) {
  WorkloadQueryConfig config;
  config.client = client;
  config.spec = tpch::Q6Spec(table);
  config.target = target;
  return config;
}

void Load(engine::Database& db,
          storage::PageLayout layout = storage::PageLayout::kPax) {
  SMARTSSD_CHECK(tpch::LoadLineitem(db, "lineitem_a", kSf, layout).ok());
  SMARTSSD_CHECK(tpch::LoadLineitem(db, "lineitem_b", kSf, layout).ok());
  db.ResetForColdRun();
}

class WorkloadSchedulerTest : public ::testing::Test {
 protected:
  WorkloadSchedulerTest() : db_(engine::DatabaseOptions::PaperSmartSsd()) {
    Load(db_);
  }

  engine::QueryResult Solo(const std::string& table,
                           ExecutionTarget target) {
    db_.ResetForColdRun();
    engine::QueryExecutor executor(&db_);
    auto result = executor.Execute(tpch::Q6Spec(table), target, 0);
    SMARTSSD_CHECK(result.ok());
    return std::move(result).value();
  }

  std::vector<CompletedQuery> RunPair(ExecutionTarget target) {
    db_.ResetForColdRun();
    WorkloadScheduler sched(&db_);
    sched.Submit(Q6On("lineitem_a", target, "a"), 0);
    sched.Submit(Q6On("lineitem_b", target, "b"), 0);
    auto records = sched.Run();
    SMARTSSD_CHECK(records.ok());
    return std::move(records).value();
  }

  engine::Database db_;
};

// A single query through the scheduler must reproduce the blocking
// executor's virtual timeline exactly — same end time, same results.
TEST_F(WorkloadSchedulerTest, SingleQueryMatchesExecutorExactly) {
  for (const ExecutionTarget target :
       {ExecutionTarget::kHost, ExecutionTarget::kSmartSsd}) {
    SCOPED_TRACE(engine::ExecutionTargetName(target));
    const engine::QueryResult solo = Solo("lineitem_a", target);

    db_.ResetForColdRun();
    WorkloadScheduler sched(&db_);
    sched.Submit(Q6On("lineitem_a", target, "only"), 0);
    auto records = sched.Run();
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 1u);
    const CompletedQuery& r = records->front();
    ASSERT_TRUE(r.result.ok());
    EXPECT_EQ(r.end, solo.stats.end);
    EXPECT_EQ(r.result.value().stats.end, solo.stats.end);
    EXPECT_EQ(r.result.value().rows, solo.rows);
    EXPECT_EQ(r.result.value().agg_values, solo.agg_values);
    EXPECT_EQ(r.queue_wait(), 0);
  }
}

// Same submissions on a fresh database -> byte-identical completion
// records: the event queue's FIFO tie-break makes the whole interleaving
// a pure function of the workload definition.
TEST_F(WorkloadSchedulerTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    engine::Database db(engine::DatabaseOptions::PaperSmartSsd());
    Load(db);
    WorkloadScheduler sched(&db);
    sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "s1"), 0);
    sched.Submit(Q6On("lineitem_b", ExecutionTarget::kSmartSsd, "s2"), 0);
    sched.Submit(Q6On("lineitem_a", ExecutionTarget::kHost, "h1"), 0);
    auto records = sched.Run();
    SMARTSSD_CHECK(records.ok());
    return std::move(records).value();
  };
  const std::vector<CompletedQuery> first = run_once();
  const std::vector<CompletedQuery> second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].client, second[i].client);
    EXPECT_EQ(first[i].arrival, second[i].arrival);
    EXPECT_EQ(first[i].admitted, second[i].admitted);
    EXPECT_EQ(first[i].end, second[i].end);
    ASSERT_TRUE(first[i].result.ok());
    ASSERT_TRUE(second[i].result.ok());
    EXPECT_EQ(first[i].result.value().rows, second[i].result.value().rows);
    EXPECT_EQ(first[i].result.value().agg_values,
              second[i].result.value().agg_values);
    EXPECT_EQ(first[i].result.value().stats.end,
              second[i].result.value().stats.end);
  }
}

// Co-running queries return exactly what they return solo — across both
// page layouts and both execution paths.
TEST(WorkloadResultIdentityTest, ConcurrentMatchesSoloAcrossConfigs) {
  for (const storage::PageLayout layout :
       {storage::PageLayout::kNsm, storage::PageLayout::kPax}) {
    for (const ExecutionTarget target :
         {ExecutionTarget::kHost, ExecutionTarget::kSmartSsd}) {
      SCOPED_TRACE(static_cast<int>(layout));
      SCOPED_TRACE(engine::ExecutionTargetName(target));
      engine::Database db(engine::DatabaseOptions::PaperSmartSsd());
      Load(db, layout);

      engine::QueryExecutor executor(&db);
      auto solo = executor.Execute(tpch::Q6Spec("lineitem_a"), target, 0);
      ASSERT_TRUE(solo.ok());

      db.ResetForColdRun();
      WorkloadScheduler sched(&db);
      sched.Submit(Q6On("lineitem_a", target, "a"), 0);
      sched.Submit(Q6On("lineitem_b", target, "b"), 0);
      auto records = sched.Run();
      ASSERT_TRUE(records.ok());
      ASSERT_EQ(records->size(), 2u);
      for (const CompletedQuery& r : *records) {
        SCOPED_TRACE(r.client);
        ASSERT_TRUE(r.result.ok()) << r.result.status().ToString();
        EXPECT_EQ(r.result.value().rows, solo->rows);
        EXPECT_EQ(r.result.value().agg_values, solo->agg_values);
        EXPECT_FALSE(r.result.value().stats.fell_back);
      }
    }
  }
}

// The concurrency payoff the blocking executor could not show: two
// interleaved pushdown sessions overlap their protocol overhead, so the
// pair finishes strictly earlier than both 2x solo and the serialized
// back-to-back schedule — with untouched per-query results.
TEST_F(WorkloadSchedulerTest, InterleavedPairBeatsSerializedSchedule) {
  const engine::QueryResult solo =
      Solo("lineitem_a", ExecutionTarget::kSmartSsd);
  const SimTime solo_end = solo.stats.end;

  // Serialized reference: two blocking calls, second queues behind the
  // first query's whole resource reservation history.
  db_.ResetForColdRun();
  engine::QueryExecutor executor(&db_);
  auto first = executor.Execute(tpch::Q6Spec("lineitem_a"),
                                ExecutionTarget::kSmartSsd, 0);
  auto second = executor.Execute(tpch::Q6Spec("lineitem_b"),
                                 ExecutionTarget::kSmartSsd, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const SimTime serialized_span =
      std::max(first->stats.end, second->stats.end);

  const std::vector<CompletedQuery> records =
      RunPair(ExecutionTarget::kSmartSsd);
  ASSERT_EQ(records.size(), 2u);
  SimTime span = 0;
  for (const CompletedQuery& r : records) {
    ASSERT_TRUE(r.result.ok());
    span = std::max(span, r.end);
    EXPECT_EQ(r.result.value().rows, solo.rows);
    EXPECT_EQ(r.result.value().agg_values, solo.agg_values);
  }
  EXPECT_LT(span, 2 * solo_end);
  EXPECT_LT(span, serialized_span);
  // Both queries actually overlapped: each took longer than solo.
  for (const CompletedQuery& r : records) {
    EXPECT_GT(r.end - r.admitted, solo_end);
  }
}

// A device reset mid-workload kills exactly one session; that query
// falls back to the host path and still returns byte-identical results,
// and its co-runners complete untouched.
TEST_F(WorkloadSchedulerTest, MidWorkloadFaultFallsBackOthersUnaffected) {
  const engine::QueryResult solo =
      Solo("lineitem_a", ExecutionTarget::kSmartSsd);

  db_.ResetForColdRun();
  db_.ssd()->fault_injector().Load([] {
    sim::FaultSchedule schedule;
    schedule.faults.push_back(
        sim::FaultSpec{sim::FaultKind::kDeviceReset,
                       {sim::TriggerUnit::kPagesRead, 40},
                       1});
    return schedule;
  }());
  WorkloadScheduler sched(&db_);
  sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "a"), 0);
  sched.Submit(Q6On("lineitem_b", ExecutionTarget::kSmartSsd, "b"), 0);
  sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "c"), 0);
  auto records = sched.Run();
  db_.ssd()->fault_injector().Clear();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);

  int fallbacks = 0;
  for (const CompletedQuery& r : *records) {
    SCOPED_TRACE(r.client);
    ASSERT_TRUE(r.result.ok()) << r.result.status().ToString();
    EXPECT_EQ(r.result.value().rows, solo.rows);
    EXPECT_EQ(r.result.value().agg_values, solo.agg_values);
    if (r.result.value().stats.fell_back) ++fallbacks;
  }
  EXPECT_EQ(fallbacks, 1);
  EXPECT_FALSE(db_.runtime()->session_leak_detected());
}

// With a single firmware session thread, co-running pushdown queries
// park at the host instead of eating OPEN rejections: everything still
// completes on the device path, one session at a time.
TEST(WorkloadGrantParkingTest, SingleGrantSerializesSessionsNoFallback) {
  engine::DatabaseOptions options = engine::DatabaseOptions::PaperSmartSsd();
  options.ssd.embedded_cpu.session_threads = 1;
  engine::Database db(options);
  Load(db);

  WorkloadScheduler sched(&db);
  sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "a"), 0);
  sched.Submit(Q6On("lineitem_b", ExecutionTarget::kSmartSsd, "b"), 0);
  sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "c"), 0);
  auto records = sched.Run();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  for (const CompletedQuery& r : *records) {
    SCOPED_TRACE(r.client);
    ASSERT_TRUE(r.result.ok()) << r.result.status().ToString();
    EXPECT_EQ(r.result.value().stats.target, ExecutionTarget::kSmartSsd);
    EXPECT_FALSE(r.result.value().stats.fell_back);
  }
  EXPECT_EQ(db.runtime()->max_active_sessions(), 1);
  EXPECT_EQ(db.runtime()->sessions_run(), 3u);
  EXPECT_FALSE(db.runtime()->session_leak_detected());
}

// Regression: tasks parked for a session grant while the device breaker
// opens must redispatch to the host instead of serializing onto a
// failing device. One firmware thread and four queries: "a" takes the
// grant and dies to an injected reset (threshold 1 opens the breaker
// for a very long cooldown, "a" falls back). "b", "c" and "d" then
// resume from the park to an open breaker and fall back without opening
// a session — byte-identical results, zero device attempts charged
// (they never touched the device). "b" wakes into the freed grant, but
// the breaker tripped while it waited, so it leaves the device alone
// too.
TEST(WorkloadGrantParkingTest, BreakerOpenRedispatchesParkedTasksToHost) {
  engine::DatabaseOptions options = engine::DatabaseOptions::PaperSmartSsd();
  options.ssd.embedded_cpu.session_threads = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown = 3'600'000 * kMillisecond;  // outlives the run
  engine::Database db(options);
  Load(db);

  engine::QueryExecutor executor(&db);
  auto host_ref =
      executor.Execute(tpch::Q6Spec("lineitem_a"), ExecutionTarget::kHost, 0);
  ASSERT_TRUE(host_ref.ok());
  db.ResetForColdRun();

  db.ssd()->fault_injector().Load([] {
    sim::FaultSchedule schedule;
    schedule.faults.push_back(
        sim::FaultSpec{sim::FaultKind::kDeviceReset,
                       {sim::TriggerUnit::kPagesRead, 40},
                       1});
    return schedule;
  }());
  WorkloadScheduler sched(&db);
  sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "a"), 0);
  sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "b"), 0);
  sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "c"), 0);
  sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "d"), 0);
  auto records = sched.Run();
  db.ssd()->fault_injector().Clear();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);

  for (const CompletedQuery& r : *records) {
    SCOPED_TRACE(r.client);
    ASSERT_TRUE(r.result.ok()) << r.result.status().ToString();
    EXPECT_EQ(r.result.value().rows, host_ref->rows);
    EXPECT_EQ(r.result.value().agg_values, host_ref->agg_values);
    const engine::QueryStats& stats = r.result.value().stats;
    if (r.client == "a") {
      // The faulted session: a real device attempt, then fallback.
      EXPECT_TRUE(stats.fell_back);
      EXPECT_EQ(stats.device_attempts, 1u);
    } else {
      // Parked, then resumed to an open breaker: host redispatch that
      // never touched the device.
      EXPECT_TRUE(stats.fell_back);
      EXPECT_EQ(stats.device_attempts, 0u);
      EXPECT_EQ(stats.target, ExecutionTarget::kHost);
    }
  }
  EXPECT_EQ(db.runtime()->sessions_run(), 1u);  // only "a"
  EXPECT_FALSE(db.runtime()->session_leak_detected());
}

// Regression: a task that parked before the breaker tripped must not
// open a session after the trip. Eight pinned-device queries at t = 0
// on three session grants, with every session failing from t = 0:
// three sessions open and five tasks park. The first two failures each
// wake a parked task into the freed grant, and the third failure trips
// the breaker (threshold 3) with those two sessions still open. The
// three tasks still parked then resume on an open breaker while one
// grant is free. Without the re-check on resume the first of them
// opened a session on it (6 failed sessions); with it, all three go to
// the host and only the five sessions started before the trip fail.
// Every result stays correct.
TEST_F(WorkloadSchedulerTest, ParkedTasksRecheckBreakerOnResume) {
  const engine::QueryResult host_ref =
      Solo("lineitem_a", ExecutionTarget::kHost);

  db_.ResetForColdRun();
  db_.circuit_breaker().Reset();
  db_.ssd()->fault_injector().Load([] {
    sim::FaultSchedule schedule;
    schedule.faults.push_back(
        sim::FaultSpec{sim::FaultKind::kDeviceReset,
                       {sim::TriggerUnit::kSimTime, 0},
                       1000});
    return schedule;
  }());
  WorkloadScheduler sched(&db_);
  for (int i = 0; i < 8; ++i) {
    sched.Submit(Q6On("lineitem_a", ExecutionTarget::kSmartSsd,
                      "q" + std::to_string(i)),
                 0);
  }
  auto records = sched.Run();
  db_.ssd()->fault_injector().Clear();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 8u);
  for (const CompletedQuery& r : *records) {
    SCOPED_TRACE(r.client);
    ASSERT_TRUE(r.result.ok()) << r.result.status().ToString();
    EXPECT_EQ(r.result.value().rows, host_ref.rows);
    EXPECT_EQ(r.result.value().agg_values, host_ref.agg_values);
  }
  EXPECT_EQ(db_.circuit_breaker().trips(), 1u);
  EXPECT_EQ(db_.runtime()->sessions_failed(), 5u);
  EXPECT_FALSE(db_.runtime()->session_leak_detected());
  db_.circuit_breaker().Reset();
}

// One arrival more than kMaxQueriesInFlight: the extra query waits in
// the admission queue, its wait shows up as queue_wait, and it starts
// when the first query delivers.
TEST_F(WorkloadSchedulerTest, AdmissionControlQueuesBeyondMaxInFlight) {
  db_.ResetForColdRun();
  WorkloadScheduler sched(&db_);
  std::uint64_t last_id = 0;
  for (int i = 0; i <= kMaxQueriesInFlight; ++i) {
    last_id = sched.Submit(
        Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "c"), 0);
  }
  auto records = sched.Run();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(),
            static_cast<std::size_t>(kMaxQueriesInFlight) + 1);
  const CompletedQuery& first = records->front();
  for (const CompletedQuery& r : *records) {
    SCOPED_TRACE(r.id);
    ASSERT_TRUE(r.result.ok()) << r.result.status().ToString();
    EXPECT_EQ(r.result.value().agg_values, first.result.value().agg_values);
    if (r.id == last_id) {
      EXPECT_EQ(r.admitted, first.end);
      EXPECT_GT(r.queue_wait(), 0);
    } else {
      EXPECT_EQ(r.queue_wait(), 0);
    }
  }
}

// Closed-loop: each next arrival is the previous completion plus think
// time. Open-loop: arrivals sit on the fixed grid no matter how long
// queries take.
TEST_F(WorkloadSchedulerTest, ClosedAndOpenLoopClientsGenerateArrivals) {
  constexpr SimDuration kThink = 1'000'000;  // 1 ms
  db_.ResetForColdRun();
  WorkloadScheduler closed(&db_);
  closed.AddClosedLoopClient(
      Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "closed"), 3, kThink);
  auto closed_records = closed.Run();
  ASSERT_TRUE(closed_records.ok());
  ASSERT_EQ(closed_records->size(), 3u);
  for (std::size_t i = 1; i < closed_records->size(); ++i) {
    EXPECT_EQ((*closed_records)[i].arrival,
              (*closed_records)[i - 1].end + kThink);
  }

  constexpr SimDuration kGap = 2'000'000;  // 2 ms: far below service time
  db_.ResetForColdRun();
  WorkloadScheduler open(&db_);
  open.AddOpenLoopClient(
      Q6On("lineitem_a", ExecutionTarget::kSmartSsd, "open"), 3, kGap);
  auto open_records = open.Run();
  ASSERT_TRUE(open_records.ok());
  ASSERT_EQ(open_records->size(), 3u);
  std::vector<SimTime> arrivals;
  for (const CompletedQuery& r : *open_records) {
    ASSERT_TRUE(r.result.ok());
    arrivals.push_back(r.arrival);
  }
  std::sort(arrivals.begin(), arrivals.end());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i], static_cast<SimTime>(i) * kGap);
  }
}

}  // namespace
}  // namespace smartssd
