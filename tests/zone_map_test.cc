// Zone maps: per-page min/max statistics, predicate range extraction,
// and pruning correctness on both execution paths.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "check/invariants.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/update.h"
#include "exec/predicate_range.h"
#include "storage/page_codec.h"
#include "storage/tuple.h"
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

// --- ZoneMap::Build against a brute-force fold, per layout ---

class ZoneMapFoldTest
    : public ::testing::TestWithParam<storage::PageLayout> {};

TEST_P(ZoneMapFoldTest, BuildMatchesBruteForceMinMax) {
  using storage::Column;
  constexpr std::uint32_t kPageSize = 512;
  // INT64 and INT32 columns around an untracked CHAR column.
  auto schema = storage::Schema::Create(
      {Column::Int64("k"), Column::Int32("a"), Column::FixedChar("f", 3),
       Column::Int64("b"), Column::Int32("c")});
  ASSERT_TRUE(schema.ok());
  const storage::PageLayout layout = GetParam();
  const std::uint32_t capacity =
      storage::PageCapacity(*schema, layout, kPageSize);
  ASSERT_GT(capacity, 1u);

  // Values of both signs, with each type's extremes on a few rows.
  constexpr int kRows = 100;
  std::vector<std::vector<std::byte>> pages;
  storage::PageBuilder builder(&*schema, layout, kPageSize);
  std::vector<std::byte> record(schema->tuple_size());
  auto seal = [&] {
    pages.emplace_back(builder.image().begin(), builder.image().end());
    builder.Reset();
    // A zeroed, never-written page after the second page.
    if (pages.size() == 2) pages.emplace_back(kPageSize, std::byte{0});
  };
  for (int row = 0; row < kRows; ++row) {
    storage::TupleWriter w(&*schema, record);
    const std::int64_t mix = (row * 2'654'435'761LL) % 1'000'003 - 500'000;
    w.SetInt64(0, row % 17 == 5 ? std::numeric_limits<std::int64_t>::min()
                                : mix * 1'000'000'007LL);
    w.SetInt32(1, row % 23 == 7 ? std::numeric_limits<std::int32_t>::max()
                                : static_cast<std::int32_t>(-mix));
    w.SetChar(2, "xyz");
    w.SetInt64(3, row % 29 == 3 ? std::numeric_limits<std::int64_t>::max()
                                : -mix * 3);
    w.SetInt32(4, row % 31 == 11 ? std::numeric_limits<std::int32_t>::min()
                                 : static_cast<std::int32_t>(mix / 7));
    if (!builder.Append(record)) {
      seal();
      ASSERT_TRUE(builder.Append(record));
    }
  }
  ASSERT_LT(builder.tuple_count(), capacity);  // a partly filled last page
  seal();
  ASSERT_GT(pages.size(), 4u);

  storage::TableInfo info{.name = "Z",
                          .schema = *schema,
                          .layout = layout,
                          .first_lpn = 0,
                          .page_count = pages.size(),
                          .tuple_count = kRows,
                          .tuples_per_page = capacity};
  auto map = storage::ZoneMap::Build(
      info, [&](std::uint64_t p) -> Result<std::span<const std::byte>> {
        return std::span<const std::byte>(pages[p]);
      });
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->pages(), pages.size());
  EXPECT_EQ(map->TrackedSlot(2), -1);

  int empty_pages = 0;
  for (std::uint64_t p = 0; p < pages.size(); ++p) {
    auto rows = storage::PageRows::Open(&info.schema, layout, pages[p]);
    ASSERT_TRUE(rows.ok());
    if (rows->tuple_count() == 0) ++empty_pages;
    for (const int c : {0, 1, 3, 4}) {
      storage::ZoneMap::Range want{std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
      for (std::uint16_t i = 0; i < rows->tuple_count(); ++i) {
        const std::int64_t v = storage::DecodeInt(
            info.schema.column(c), rows->column(rows->row(i), c));
        want.min = std::min(want.min, v);
        want.max = std::max(want.max, v);
      }
      const int slot = map->TrackedSlot(c);
      ASSERT_GE(slot, 0);
      const storage::ZoneMap::Range& got = map->SlotRange(p, slot);
      EXPECT_EQ(got.min, want.min) << "page " << p << " column " << c;
      EXPECT_EQ(got.max, want.max) << "page " << p << " column " << c;
    }
  }
  EXPECT_EQ(empty_pages, 1);
}

// The page writers keep the live map exact. After every page an update
// or append cursor writes, including an update that narrows a page's
// range, and after the flush, the live map equals a fresh Build over
// the table's current page images: the pool's image for a cached page,
// the device's otherwise.
TEST_P(ZoneMapFoldTest, WritersKeepLiveMapEqualToRebuild) {
  const storage::PageLayout layout = GetParam();
  Database db(DatabaseOptions::PaperSmartSsd());
  // Col_1 = row (key), Col_2 = row % 97, Col_3 = (row * 7) % 1000,
  // Col_4 = 5.
  const storage::RowGenerator fill = [](std::uint64_t row,
                                        storage::TupleWriter& w) {
    w.SetInt32(0, static_cast<std::int32_t>(row));
    w.SetInt32(1, static_cast<std::int32_t>(row % 97));
    w.SetInt32(2, static_cast<std::int32_t>((row * 7) % 1000));
    w.SetInt32(3, 5);
  };
  ASSERT_TRUE(db.LoadTable("T", tpch::SyntheticSchema(4), layout, 3'000,
                           fill, /*reserve_extra_pages=*/4)
                  .ok());
  ASSERT_TRUE(db.BuildZoneMap("T").ok());
  db.ResetForColdRun();
  const storage::ZoneMap& live = *db.zone_map("T");

  auto expect_exact = [&](const std::string& when) {
    const storage::TableInfo& info = *db.catalog().GetTable("T").value();
    engine::BufferPool& pool = db.buffer_pool();
    auto rebuilt = storage::ZoneMap::Build(
        info, [&](std::uint64_t p) -> Result<std::span<const std::byte>> {
          const std::uint64_t lpn = info.first_lpn + p;
          if (!pool.IsCached(lpn)) return db.ssd()->ViewPage(lpn);
          SMARTSSD_ASSIGN_OR_RETURN(auto cached,
                                    pool.GetPage(lpn, 0, lpn + 1));
          return cached.first;
        });
    ASSERT_TRUE(rebuilt.ok()) << when;
    const Status same = check::CheckZoneMapEquals(info, live, *rebuilt);
    EXPECT_TRUE(same.ok()) << when << ": " << same.ToString();
  };
  auto update = [&](const std::string& name, std::int64_t max_key,
                    int col, std::int32_t value) {
    const auto pred = ex::Le(ex::Col(0), ex::Lit(max_key));
    auto cursor = engine::UpdateCursor::Open(
        &db, "T", pred.get(),
        [col, value](const expr::RowView&, storage::TupleWriter& w) {
          w.SetInt32(col, value);
        });
    ASSERT_TRUE(cursor.ok());
    SimTime t = 0;
    for (int step = 0; !cursor->done(); ++step) {
      auto at = cursor->StepPage(t);
      ASSERT_TRUE(at.ok()) << at.status().ToString();
      t = *at;
      expect_exact(name + " page " + std::to_string(step));
    }
  };

  const int col3 = live.TrackedSlot(2);
  update("widening update", 700, 2, 5'000);
  EXPECT_EQ(live.SlotRange(0, col3).max, 5'000);
  // Page 0 holds only keys <= 700: setting them all to 7 narrows its
  // Col_3 range to one value.
  update("narrowing update", 700, 2, 7);
  EXPECT_EQ(live.SlotRange(0, col3).min, 7);
  EXPECT_EQ(live.SlotRange(0, col3).max, 7);

  const std::uint64_t pages_before = live.pages();
  const std::uint32_t capacity =
      db.catalog().GetTable("T").value()->tuples_per_page;
  auto append = engine::AppendCursor::Open(&db, "T", capacity * 3 / 2, fill);
  ASSERT_TRUE(append.ok());
  SimTime t = 0;
  for (int step = 0; !append->done(); ++step) {
    auto at = append->StepPage(t);
    ASSERT_TRUE(at.ok()) << at.status().ToString();
    t = *at;
    expect_exact("append page " + std::to_string(step));
  }
  EXPECT_GT(live.pages(), pages_before);

  ASSERT_TRUE(db.buffer_pool().FlushAll(t).ok());
  expect_exact("flush");
  const Status stored = check::CheckZoneMapsMatchStorage(db);
  EXPECT_TRUE(stored.ok()) << stored.ToString();
}

INSTANTIATE_TEST_SUITE_P(Layouts, ZoneMapFoldTest,
                         ::testing::Values(storage::PageLayout::kNsm,
                                           storage::PageLayout::kPax),
                         [](const auto& info) {
                           return std::string(
                               storage::PageLayoutName(info.param));
                         });

}  // namespace
}  // namespace smartssd
