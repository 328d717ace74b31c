#include <gtest/gtest.h>

#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

namespace smartssd::engine {
namespace {

// Small-but-real workload sizes: enough pages to exercise pipelining,
// small enough to keep the suite fast.
constexpr double kSf = 0.005;  // 30k LINEITEM rows, 1k PART rows
constexpr std::uint64_t kSRows = 20'000;
constexpr std::uint64_t kRRows = 50;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : db_(DatabaseOptions::PaperSmartSsd()) {
    SMARTSSD_CHECK(tpch::LoadLineitem(db_, "lineitem", kSf,
                                      storage::PageLayout::kPax)
                       .ok());
    SMARTSSD_CHECK(
        tpch::LoadPart(db_, "part", kSf, storage::PageLayout::kPax).ok());
    SMARTSSD_CHECK(tpch::LoadSyntheticS(db_, "S", 64, kSRows, kRRows,
                                        storage::PageLayout::kPax)
                       .ok());
    SMARTSSD_CHECK(tpch::LoadSyntheticR(db_, "R", 64, kRRows,
                                        storage::PageLayout::kPax)
                       .ok());
    db_.ResetForColdRun();
  }

  QueryResult Run(const exec::QuerySpec& spec, ExecutionTarget target) {
    db_.ResetForColdRun();
    QueryExecutor executor(&db_);
    auto result = executor.Execute(spec, target);
    SMARTSSD_CHECK(result.ok());
    return std::move(result).value();
  }

  Database db_;
};

// Run alone, a pushdown that finds every session grant held has no
// co-running query to free one. It returns RESOURCE_EXHAUSTED at once,
// issues no device traffic, and leaves the breaker untouched.
TEST_F(ExecutorTest, HeldSessionGrantsReturnResourceExhausted) {
  int held = 0;
  while (db_.ssd()->AcquireSessionThread().ok()) ++held;
  ASSERT_GT(held, 0);
  const std::uint64_t reads_before = db_.ssd()->flash_array().reads();
  QueryExecutor executor(&db_);
  auto parked = executor.Execute(tpch::Q6Spec("lineitem"),
                                 ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(parked.ok());
  EXPECT_EQ(parked.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(db_.ssd()->flash_array().reads(), reads_before);
  EXPECT_EQ(db_.circuit_breaker().total_failures(), 0u);

  for (int i = 0; i < held; ++i) db_.ssd()->ReleaseSessionThread();
  const auto smart =
      Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kSmartSsd);
  EXPECT_EQ(smart.stats.target, ExecutionTarget::kSmartSsd);
}

// The fundamental correctness property: host execution and in-SSD
// pushdown produce byte-identical results (same kernel, same bytes).
TEST_F(ExecutorTest, HostAndDeviceAgreeOnQ6) {
  const auto host = Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kHost);
  const auto smart =
      Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kSmartSsd);
  EXPECT_EQ(host.rows, smart.rows);
  ASSERT_EQ(host.agg_values.size(), 1u);
  EXPECT_EQ(host.agg_values, smart.agg_values);
  EXPECT_GT(host.agg_values[0], 0);
}

TEST_F(ExecutorTest, HostAndDeviceAgreeOnQ14) {
  const auto host =
      Run(tpch::Q14Spec("lineitem", "part"), ExecutionTarget::kHost);
  const auto smart =
      Run(tpch::Q14Spec("lineitem", "part"), ExecutionTarget::kSmartSsd);
  EXPECT_EQ(host.agg_values, smart.agg_values);
  const double promo = tpch::Q14PromoRevenue(host.agg_values);
  // PROMO leads 1/6 of p_type values. At SF 0.005 the one-month window
  // samples only a few hundred parts, so the band is wide.
  EXPECT_NEAR(promo, 100.0 / 6.0, 7.0);
}

TEST_F(ExecutorTest, HostAndDeviceAgreeOnJoinRows) {
  const auto spec_host = tpch::JoinQuerySpec("S", "R", 0.1);
  const auto host = Run(spec_host, ExecutionTarget::kHost);
  const auto spec_smart = tpch::JoinQuerySpec("S", "R", 0.1);
  const auto smart = Run(spec_smart, ExecutionTarget::kSmartSsd);
  EXPECT_EQ(host.rows, smart.rows);
  EXPECT_GT(host.row_count(), 0u);
  // ~10% of S rows qualify; every FK matches R.
  EXPECT_NEAR(static_cast<double>(host.row_count()), kSRows * 0.1,
              kSRows * 0.02);
}

TEST_F(ExecutorTest, SmartPathIsFasterForSelectiveAggregates) {
  const auto host = Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kHost);
  const auto smart =
      Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kSmartSsd);
  EXPECT_LT(smart.stats.elapsed(), host.stats.elapsed());
}

TEST_F(ExecutorTest, SmartPathMovesFarFewerBytes) {
  const auto host = Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kHost);
  const auto smart =
      Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kSmartSsd);
  // Host pulls the whole table; the device returns one aggregate row
  // plus command traffic.
  EXPECT_GT(host.stats.bytes_over_host_link,
            100 * smart.stats.bytes_over_host_link);
}

TEST_F(ExecutorTest, StatsAreFilledIn) {
  const auto smart =
      Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kSmartSsd);
  EXPECT_EQ(smart.stats.target, ExecutionTarget::kSmartSsd);
  EXPECT_EQ(smart.stats.layout, storage::PageLayout::kPax);
  EXPECT_GT(smart.stats.embedded_cycles, 0u);
  EXPECT_GT(smart.stats.pages_read, 0u);
  EXPECT_GT(smart.stats.session.gets_issued, 0u);
  EXPECT_EQ(smart.stats.counts.tuples, tpch::LineitemRows(kSf));

  const auto host = Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kHost);
  EXPECT_GT(host.stats.host_cycles, 0u);
  EXPECT_EQ(host.stats.embedded_cycles, 0u);
  EXPECT_EQ(host.stats.counts.tuples, tpch::LineitemRows(kSf));
}

TEST_F(ExecutorTest, PushdownRefusedWithDirtyPages) {
  db_.ResetForColdRun();
  // Dirty one page of LINEITEM in the buffer pool.
  auto info = db_.catalog().GetTable("lineitem");
  ASSERT_TRUE(info.ok());
  std::vector<std::byte> page(db_.device().page_size(), std::byte{0});
  ASSERT_TRUE(
      db_.buffer_pool().WritePage((*info)->first_lpn, page, 0).ok());

  QueryExecutor executor(&db_);
  auto result = executor.Execute(tpch::Q6Spec("lineitem"),
                                 ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  // Host execution still works (and sees the dirtied page from the
  // pool).
  auto host = executor.Execute(tpch::Q6Spec("lineitem"),
                               ExecutionTarget::kHost);
  EXPECT_TRUE(host.ok());
  ASSERT_TRUE(db_.buffer_pool().FlushAll(0).ok());
}

TEST_F(ExecutorTest, PushdownOnNonSmartDeviceFails) {
  Database plain(DatabaseOptions::PaperSsd());
  ASSERT_TRUE(tpch::LoadSyntheticS(plain, "S", 8, 100, 10,
                                   storage::PageLayout::kNsm)
                  .ok());
  QueryExecutor executor(&plain);
  auto result = executor.Execute(tpch::ScanQuerySpec("S", 8, 0.5, true),
                                 ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorTest, WarmPoolSpeedsUpSecondHostRun) {
  // Use a table smaller than the pool so it fully caches.
  ASSERT_TRUE(tpch::LoadSyntheticS(db_, "tiny", 8, 5000, 10,
                                   storage::PageLayout::kPax)
                  .ok());
  db_.ResetForColdRun();
  QueryExecutor executor(&db_);
  const auto spec = [] {
    return tpch::ScanQuerySpec("tiny", 8, 0.5, true);
  };
  auto cold = executor.Execute(spec(), ExecutionTarget::kHost, 0);
  ASSERT_TRUE(cold.ok());
  auto warm =
      executor.Execute(spec(), ExecutionTarget::kHost, cold->stats.end);
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->stats.elapsed(), cold->stats.elapsed());
  EXPECT_EQ(warm->agg_values, cold->agg_values);
}

TEST_F(ExecutorTest, HddDatabaseRunsHostPath) {
  Database hdd(DatabaseOptions::PaperHdd());
  ASSERT_TRUE(tpch::LoadLineitem(hdd, "lineitem", kSf,
                                 storage::PageLayout::kNsm)
                  .ok());
  hdd.ResetForColdRun();
  QueryExecutor executor(&hdd);
  auto result =
      executor.Execute(tpch::Q6Spec("lineitem"), ExecutionTarget::kHost);
  ASSERT_TRUE(result.ok());

  // Same answer as the SSD-resident copy.
  const auto ssd_result =
      Run(tpch::Q6Spec("lineitem"), ExecutionTarget::kHost);
  EXPECT_EQ(result->agg_values, ssd_result.agg_values);
  // And much slower: ~82 MB/s vs ~550 MB/s.
  EXPECT_GT(result->stats.elapsed(), 4 * ssd_result.stats.elapsed());
}

}  // namespace
}  // namespace smartssd::engine
