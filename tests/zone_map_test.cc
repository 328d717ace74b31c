// Zone maps: per-page min/max statistics, predicate range extraction,
// and pruning correctness on both execution paths.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/executor.h"
#include "exec/predicate_range.h"
#include "storage/zone_map.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"

namespace smartssd {
namespace {

namespace ex = ::smartssd::expr;
using engine::Database;
using engine::DatabaseOptions;
using engine::ExecutionTarget;
using engine::QueryExecutor;

// --- Predicate range extraction ---

TEST(PredicateRangeTest, SingleComparisons) {
  {
    const auto pred = ex::Lt(ex::Col(2), ex::Lit(100));
    const auto ranges = exec::ExtractColumnRanges(pred.get());
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges.at(2).hi, 99);
  }
  {
    const auto pred = ex::Ge(ex::Col(0), ex::Lit(-5));
    const auto ranges = exec::ExtractColumnRanges(pred.get());
    EXPECT_EQ(ranges.at(0).lo, -5);
  }
  {
    const auto pred = ex::Eq(ex::Col(1), ex::Lit(7));
    const auto ranges = exec::ExtractColumnRanges(pred.get());
    EXPECT_EQ(ranges.at(1).lo, 7);
    EXPECT_EQ(ranges.at(1).hi, 7);
  }
}

TEST(PredicateRangeTest, LiteralOnLeftIsNormalized) {
  // 100 > col  <=>  col < 100.
  const auto pred =
      ex::Compare(ex::CompareOp::kGt, ex::Lit(100), ex::Col(3));
  const auto ranges = exec::ExtractColumnRanges(pred.get());
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges.at(3).hi, 99);
}

TEST(PredicateRangeTest, ConjunctionIntersects) {
  std::vector<ex::ExprPtr> conjuncts;
  conjuncts.push_back(ex::Ge(ex::Col(10), ex::Lit(731)));
  conjuncts.push_back(ex::Lt(ex::Col(10), ex::Lit(1096)));
  conjuncts.push_back(ex::Gt(ex::Col(6), ex::Lit(5)));
  const auto pred = ex::And(std::move(conjuncts));
  const auto ranges = exec::ExtractColumnRanges(pred.get());
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges.at(10).lo, 731);
  EXPECT_EQ(ranges.at(10).hi, 1095);
  EXPECT_EQ(ranges.at(6).lo, 6);
}

TEST(PredicateRangeTest, NonRangeShapesAreIgnored) {
  EXPECT_TRUE(exec::ExtractColumnRanges(nullptr).empty());
  // OR cannot prune.
  std::vector<ex::ExprPtr> disjuncts;
  disjuncts.push_back(ex::Lt(ex::Col(0), ex::Lit(5)));
  disjuncts.push_back(ex::Gt(ex::Col(0), ex::Lit(50)));
  const auto pred = ex::Or(std::move(disjuncts));
  EXPECT_TRUE(exec::ExtractColumnRanges(pred.get()).empty());
  // Column-to-column comparison cannot prune.
  const auto colcol = ex::Lt(ex::Col(0), ex::Col(1));
  EXPECT_TRUE(exec::ExtractColumnRanges(colcol.get()).empty());
  // NE does not narrow.
  const auto ne = ex::Compare(ex::CompareOp::kNe, ex::Col(0), ex::Lit(3));
  const auto ranges = exec::ExtractColumnRanges(ne.get());
  EXPECT_EQ(ranges.at(0).lo, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(ranges.at(0).hi, std::numeric_limits<std::int64_t>::max());
}

// --- ZoneMap on real tables ---

class ZoneMapTest : public ::testing::Test {
 protected:
  ZoneMapTest() : db_(DatabaseOptions::PaperSmartSsd()) {
    // A clustered table: Col_1 = row+1 is monotonically increasing, so
    // pages are perfectly separable on it; Col_3 is random.
    SMARTSSD_CHECK(tpch::LoadSyntheticS(db_, "T", 8, 50'000, 100,
                                        storage::PageLayout::kPax)
                       .ok());
    SMARTSSD_CHECK(db_.BuildZoneMap("T").ok());
    db_.ResetForColdRun();
  }

  Database db_;
};

TEST_F(ZoneMapTest, TracksIntegerColumnsOnly) {
  const storage::ZoneMap* map = db_.zone_map("T");
  ASSERT_NE(map, nullptr);
  EXPECT_TRUE(map->TracksColumn(0));
  EXPECT_TRUE(map->TracksColumn(7));
  EXPECT_FALSE(map->TracksColumn(8));   // out of schema
  EXPECT_FALSE(map->TracksColumn(-1));
  EXPECT_GT(map->memory_bytes(), 0u);
}

TEST_F(ZoneMapTest, PageRangesCoverClusteredColumn) {
  const storage::ZoneMap* map = db_.zone_map("T");
  auto info = db_.catalog().GetTable("T");
  ASSERT_TRUE(info.ok());
  // Col_1 is row+1: page p spans exactly its row range.
  const int slot = map->TrackedSlot(0);
  ASSERT_GE(slot, 0);
  EXPECT_EQ(map->TrackedSlot(8), -1);
  std::int64_t prev_max = 0;
  for (std::uint64_t p = 0; p < map->pages(); ++p) {
    const storage::ZoneMap::Range& range = map->SlotRange(p, slot);
    EXPECT_EQ(range.min, prev_max + 1);
    EXPECT_GE(range.max, range.min);
    prev_max = range.max;
  }
  EXPECT_EQ(prev_max, 50'000);
}

TEST_F(ZoneMapTest, MayMatchIsSound) {
  const storage::ZoneMap* map = db_.zone_map("T");
  // Page 0 holds Col_1 in [1, ~capacity]; values beyond cannot match.
  EXPECT_TRUE(map->PageMayMatch(0, 0, 1, 10));
  EXPECT_FALSE(map->PageMayMatch(0, 0, 40'000, 50'000));
  // Untracked columns always may match.
  EXPECT_TRUE(map->PageMayMatch(0, 99, 0, 0));
}

// Results with pruning must equal results without, on both paths.
TEST_F(ZoneMapTest, PrunedResultsAreExact) {
  // Predicate on the clustered column: SUM over Col_1 < 5000 (first
  // ~10% of rows).
  exec::QuerySpec pruned_spec;
  pruned_spec.name = "clustered_scan";
  pruned_spec.table = "T";
  pruned_spec.predicate = ex::Lt(ex::Col(0), ex::Lit(5000));
  pruned_spec.aggregates.push_back(
      {exec::AggSpec::Fn::kSum, ex::Col(2), "s"});
  pruned_spec.aggregates.push_back(
      {exec::AggSpec::Fn::kCount, nullptr, "c"});

  Database no_map_db(DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(tpch::LoadSyntheticS(no_map_db, "T", 8, 50'000, 100,
                                      storage::PageLayout::kPax)
                     .ok());
  no_map_db.ResetForColdRun();

  for (const auto target :
       {ExecutionTarget::kHost, ExecutionTarget::kSmartSsd}) {
    db_.ResetForColdRun();
    QueryExecutor pruned_exec(&db_);
    auto pruned = pruned_exec.Execute(pruned_spec, target);
    ASSERT_TRUE(pruned.ok());

    no_map_db.ResetForColdRun();
    QueryExecutor plain_exec(&no_map_db);
    auto plain = plain_exec.Execute(pruned_spec, target);
    ASSERT_TRUE(plain.ok());

    EXPECT_EQ(pruned->agg_values, plain->agg_values);
    // ~90% of pages skipped on the clustered predicate.
    EXPECT_GT(pruned->stats.pages_skipped,
              pruned->stats.pages_read * 5);
    EXPECT_EQ(plain->stats.pages_skipped, 0u);
    // And it is faster.
    EXPECT_LT(pruned->stats.elapsed(), plain->stats.elapsed());
  }
}

TEST_F(ZoneMapTest, RandomColumnPredicateSkipsNothing) {
  // Col_3 is uniform per page, so every page may match: pruning is a
  // no-op but results stay exact.
  const auto spec = tpch::ScanQuerySpec("T", 8, 0.3, true);
  db_.ResetForColdRun();
  QueryExecutor executor(&db_);
  auto result = executor.Execute(spec, ExecutionTarget::kSmartSsd);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.pages_skipped, 0u);
}

TEST_F(ZoneMapTest, ImpossiblePredicateSkipsEverything) {
  exec::QuerySpec spec;
  spec.table = "T";
  spec.predicate = ex::Gt(ex::Col(0), ex::Lit(1'000'000));  // > max key
  spec.aggregates.push_back({exec::AggSpec::Fn::kCount, nullptr, "c"});
  db_.ResetForColdRun();
  QueryExecutor executor(&db_);
  auto result = executor.Execute(spec, ExecutionTarget::kHost);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->agg_values[1 - 1], 0);
  EXPECT_EQ(result->stats.pages_read, 0u);
  EXPECT_GT(result->stats.pages_skipped, 0u);
}

}  // namespace
}  // namespace smartssd
