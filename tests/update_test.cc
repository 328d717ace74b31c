// Host-side updates and their interaction with pushdown coherence
// (Section 4.3) and zone maps.

#include <gtest/gtest.h>

#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "engine/update.h"
#include "storage/page_codec.h"
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

// An update keeps the zone map: it refolds every page it rewrites, so
// the same map stays live and covers the new values, which here lie
// past every loaded key.
TEST_P(UpdateTest, UpdateDropsZoneMap) {
  ASSERT_TRUE(db_.BuildZoneMap("T").ok());
  const storage::ZoneMap* map = db_.zone_map("T");
  ASSERT_NE(map, nullptr);
  EXPECT_FALSE(map->PageMayMatch(0, 0, 999'999, 999'999));
  TableUpdater updater(&db_);
  const auto pred = ex::Le(ex::Col(0), ex::Lit(10));
  ASSERT_TRUE(updater
                  .Update("T", pred.get(),
                          [](const expr::RowView&,
                             storage::TupleWriter& writer) {
                            writer.SetInt32(0, 999'999);
                          })
                  .ok());
  EXPECT_EQ(db_.zone_map("T"), map);
  EXPECT_EQ(map->SlotRange(0, map->TrackedSlot(0)).max, 999'999);
  EXPECT_TRUE(map->PageMayMatch(0, 0, 999'999, 999'999));
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

// The rows of T's pages as NSM records, read through the pool.
std::vector<std::vector<std::byte>> ReadRecords(Database& db) {
  const storage::TableInfo& info = *db.catalog().GetTable("T").value();
  std::vector<std::vector<std::byte>> records;
  for (std::uint64_t p = 0; p < info.page_count; ++p) {
    auto page = db.buffer_pool().GetPage(info.first_lpn + p, 0,
                                         info.first_lpn + info.page_count);
    SMARTSSD_CHECK(page.ok());
    auto rows =
        storage::PageRows::Open(&info.schema, info.layout, page->first);
    SMARTSSD_CHECK(rows.ok());
    expr::PageRowView row(&*rows);
    for (std::uint16_t i = 0; i < rows->tuple_count(); ++i) {
      row.Reset(i);
      records.emplace_back(info.schema.tuple_size());
      row.CopyRecord(records.back().data());
    }
  }
  return records;
}

// Runs an update pass with `predicate` and checks it against a
// reference that evaluates the predicate row by row (Expression::
// Evaluate) over the pages before the update: the same rows matched,
// in page order, the same rows_matched and pages_dirtied, and the
// pages read back afterwards hold the reference's rows.
void CheckUpdateAgainstReference(Database& db,
                                 const expr::Expression& predicate,
                                 exec::KernelMode expected_kernel) {
  const storage::TableInfo& info = *db.catalog().GetTable("T").value();
  // Col_4 += 1, read through the row the mutation sees; Col_1 (the
  // key, row + 1) names the row.
  const auto bump = [](const expr::RowView& row,
                       storage::TupleWriter& writer) {
    writer.SetInt32(3, static_cast<std::int32_t>(row.GetColumn(3).AsInt() + 1));
  };
  std::vector<std::int64_t> mutated_keys;
  const TableUpdater::MutateFn mutate =
      [&mutated_keys, &bump](const expr::RowView& row,
                             storage::TupleWriter& writer) {
        mutated_keys.push_back(row.GetColumn(0).AsInt());
        bump(row, writer);
      };

  std::vector<std::int64_t> want_keys;
  std::uint64_t want_pages = 0;
  std::vector<std::vector<std::byte>> want_records;
  for (std::uint64_t p = 0; p < info.page_count; ++p) {
    auto page = db.buffer_pool().GetPage(info.first_lpn + p, 0,
                                         info.first_lpn + info.page_count);
    ASSERT_TRUE(page.ok());
    auto rows =
        storage::PageRows::Open(&info.schema, info.layout, page->first);
    ASSERT_TRUE(rows.ok());
    expr::PageRowView row(&*rows);
    bool page_matched = false;
    for (std::uint16_t i = 0; i < rows->tuple_count(); ++i) {
      row.Reset(i);
      want_records.emplace_back(info.schema.tuple_size());
      row.CopyRecord(want_records.back().data());
      expr::EvalStats stats;
      if (!predicate.Evaluate(row, &stats).AsBool()) continue;
      page_matched = true;
      want_keys.push_back(row.GetColumn(0).AsInt());
      storage::TupleWriter writer(&info.schema, want_records.back());
      bump(row, writer);
    }
    if (page_matched) ++want_pages;
  }
  ASSERT_GT(want_keys.size(), 0u);
  ASSERT_LT(want_pages, info.page_count);  // some pages stay clean

  auto cursor = UpdateCursor::Open(&db, "T", &predicate, mutate);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->kernel_mode(), expected_kernel);
  SimTime t = 0;
  while (!cursor->done()) {
    auto at = cursor->StepPage(t);
    ASSERT_TRUE(at.ok());
    t = *at;
  }
  EXPECT_EQ(mutated_keys, want_keys);
  EXPECT_EQ(cursor->stats().rows_matched, want_keys.size());
  EXPECT_EQ(cursor->stats().pages_dirtied, want_pages);
  EXPECT_EQ(ReadRecords(db), want_records);
}

TEST_P(UpdateTest, BatchFilteredUpdateMatchesRowByRowReference) {
  // Col_1 <= 6000 AND Col_2 < 20: a scattered fifth of the first 6,000
  // rows.
  std::vector<ex::ExprPtr> conjuncts;
  conjuncts.push_back(ex::Le(ex::Col(0), ex::Lit(6'000)));
  conjuncts.push_back(ex::Lt(ex::Col(1), ex::Lit(20)));
  const auto pred = ex::And(std::move(conjuncts));
  CheckUpdateAgainstReference(db_, *pred, exec::KernelMode::kVectorized);
}

TEST_P(UpdateTest, UncompilablePredicateUpdatesRowByRow) {
  // CASE WHEN Col_1 <= 6000 THEN Col_2 ELSE Col_2 / 4 END > 90: INT64
  // and DOUBLE branches, which the batch compiler rejects. Col_2 is at
  // most 100, so only rows of the first 6,000 match.
  const auto pred = ex::Gt(
      ex::CaseWhen(ex::Le(ex::Col(0), ex::Lit(6'000)), ex::Col(1),
                   ex::Arith(ex::ArithOp::kDiv, ex::Col(1), ex::Lit(4))),
      ex::Lit(90));
  CheckUpdateAgainstReference(db_, *pred, exec::KernelMode::kScalar);
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
