// Host-side updates and their interaction with pushdown coherence
// (Section 4.3) and zone maps.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "engine/update.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"

namespace smartssd::engine {
namespace {

namespace ex = ::smartssd::expr;

class UpdateTest : public ::testing::TestWithParam<storage::PageLayout> {
 protected:
  UpdateTest() : db_(DatabaseOptions::PaperSmartSsd()) {
    SMARTSSD_CHECK(
        tpch::LoadSyntheticS(db_, "T", 8, 20'000, 100, GetParam()).ok());
    db_.ResetForColdRun();
  }

  std::int64_t SumCol4(ExecutionTarget target) {
    exec::QuerySpec spec;
    spec.table = "T";
    spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(3), "s"});
    QueryExecutor executor(&db_);
    auto result = executor.Execute(spec, target);
    SMARTSSD_CHECK(result.ok());
    return result->agg_values[0];
  }

  Database db_;
};

TEST_P(UpdateTest, UpdateChangesHostVisibleValues) {
  const std::int64_t before = SumCol4(ExecutionTarget::kHost);
  TableUpdater updater(&db_);
  // Zero Col_4 on rows with Col_1 <= 100.
  const auto pred = ex::Le(ex::Col(0), ex::Lit(100));
  auto stats = updater.Update(
      "T", pred.get(),
      [](const expr::RowView&, storage::TupleWriter& writer) {
        writer.SetInt32(3, 0);
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_matched, 100u);
  EXPECT_GT(stats->pages_dirtied, 0u);

  const std::int64_t after = SumCol4(ExecutionTarget::kHost);
  EXPECT_LE(after, before);
  EXPECT_NE(after, before);  // Col_4 is random; 100 zeroed rows shift it
}

TEST_P(UpdateTest, DirtyPagesGatePushdownUntilFlush) {
  TableUpdater updater(&db_);
  auto stats = updater.Update(
      "T", nullptr,
      [](const expr::RowView&, storage::TupleWriter& writer) {
        writer.SetInt32(3, 7);
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_matched, 20'000u);

  // Pushdown refused while dirty.
  exec::QuerySpec spec;
  spec.table = "T";
  spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(3), "s"});
  QueryExecutor executor(&db_);
  auto refused = executor.Execute(spec, ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // Host sees the new values through the pool.
  EXPECT_EQ(SumCol4(ExecutionTarget::kHost), 7 * 20'000);

  // After flushing, pushdown works and agrees with the host.
  ASSERT_TRUE(db_.buffer_pool().FlushAll(0).ok());
  EXPECT_EQ(SumCol4(ExecutionTarget::kSmartSsd), 7 * 20'000);
}

TEST_P(UpdateTest, UpdateDropsZoneMap) {
  ASSERT_TRUE(db_.BuildZoneMap("T").ok());
  ASSERT_NE(db_.zone_map("T"), nullptr);
  TableUpdater updater(&db_);
  const auto pred = ex::Le(ex::Col(0), ex::Lit(10));
  ASSERT_TRUE(updater
                  .Update("T", pred.get(),
                          [](const expr::RowView&,
                             storage::TupleWriter& writer) {
                            writer.SetInt32(0, 999'999);
                          })
                  .ok());
  EXPECT_EQ(db_.zone_map("T"), nullptr);
}

TEST_P(UpdateTest, NoMatchesLeavesEverythingClean) {
  TableUpdater updater(&db_);
  const auto pred = ex::Gt(ex::Col(0), ex::Lit(1'000'000));
  auto stats = updater.Update(
      "T", pred.get(),
      [](const expr::RowView&, storage::TupleWriter& writer) {
        writer.SetInt32(3, 0);
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_matched, 0u);
  EXPECT_EQ(stats->pages_dirtied, 0u);
  auto info = db_.catalog().GetTable("T");
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(db_.buffer_pool().HasDirtyInRange((*info)->first_lpn,
                                                 (*info)->page_count));
}

TEST_P(UpdateTest, PlannerRefusesDirtyThenRecovers) {
  TableUpdater updater(&db_);
  const auto pred = ex::Le(ex::Col(0), ex::Lit(5));
  ASSERT_TRUE(updater
                  .Update("T", pred.get(),
                          [](const expr::RowView&,
                             storage::TupleWriter& writer) {
                            writer.SetInt32(3, 1);
                          })
                  .ok());
  exec::QuerySpec spec = tpch::ScanQuerySpec("T", 8, 0.01, true);
  auto bound = exec::Bind(spec, db_.catalog());
  ASSERT_TRUE(bound.ok());
  PushdownPlanner planner(&db_);
  auto dirty_decision = planner.Decide(*bound);
  ASSERT_TRUE(dirty_decision.ok());
  EXPECT_EQ(dirty_decision->target, ExecutionTarget::kHost);

  ASSERT_TRUE(db_.buffer_pool().FlushAll(0).ok());
  db_.ResetForColdRun();
  auto clean_decision = planner.Decide(*bound);
  ASSERT_TRUE(clean_decision.ok());
  // Once flushed, the decision is back to cost-based (this narrow
  // 8-column table legitimately favors the host; what matters is that
  // coherence no longer forces it).
  EXPECT_EQ(clean_decision->reason.find("coherence"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Layouts, UpdateTest,
                         ::testing::Values(storage::PageLayout::kNsm,
                                           storage::PageLayout::kPax),
                         [](const auto& info) {
                           return std::string(
                               storage::PageLayoutName(info.param));
                         });

}  // namespace
}  // namespace smartssd::engine
