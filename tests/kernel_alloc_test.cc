// Pins the batch kernel's allocation contract: once the vectorized
// PageProcessor has processed one page, later pages of the same shape
// allocate nothing. That covers the sized-once BatchScratch, the
// in-place PAX directory, the per-lane buffers, the batched join probe,
// the group table and the top-N row buffer. The same holds for an
// update pass (engine::UpdateCursor): its batch filter, page builder and
// record are reused from page to page, the zone-map refold of each
// rewritten page reuses the cursor's NSM gather buffer, and the buffer
// pool's lpn index is sized once. The binary replaces global operator
// new with a counting one; nothing here is timed.
//
// Each query shape runs on PAX and NSM over in-memory pages whose first
// page already holds everything later pages need: passing rows for the
// predicate, every Q1 group, probe hits and a full top-N heap.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/update.h"
#include "exec/page_processor.h"
#include "exec/query_spec.h"
#include "storage/catalog.h"
#include "storage/page_codec.h"
#include "storage/tuple.h"
#include "tpch/dates.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Every other allocating form of operator new (array, nothrow) funnels
// into this one by default, and the array deletes into these deletes.
// Kept out of line, so the compiler pairs each new with a delete
// rather than with the malloc/free inside them.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace smartssd::exec {
namespace {

using storage::PageLayout;
using storage::Schema;

constexpr std::uint32_t kPageSize = 8192;
constexpr int kPartRows = 200;
constexpr int kSynthColumns = 16;

struct MemTable {
  storage::TableInfo info;
  std::vector<std::vector<std::byte>> pages;
};

using RowFill = std::function<void(int row, storage::TupleWriter&)>;

MemTable BuildTable(std::string name, const Schema& schema,
                    PageLayout layout, int rows, const RowFill& gen) {
  MemTable table;
  std::vector<std::byte> tuple(schema.tuple_size());
  storage::PageBuilder builder(&schema, layout, kPageSize);
  auto seal = [&]() {
    table.pages.emplace_back(builder.image().begin(), builder.image().end());
    builder.Reset();
  };
  for (int row = 0; row < rows; ++row) {
    std::fill(tuple.begin(), tuple.end(), std::byte{0});
    storage::TupleWriter w(&schema, tuple);
    gen(row, w);
    if (!builder.Append(tuple)) {
      seal();
      SMARTSSD_CHECK(builder.Append(tuple));
    }
  }
  seal();
  table.info = storage::TableInfo{
      .name = std::move(name),
      .schema = schema,
      .layout = layout,
      .first_lpn = 0,
      .page_count = table.pages.size(),
      .tuple_count = static_cast<std::uint64_t>(rows),
      .tuples_per_page = 0};
  return table;
}

// LINEITEM rows that repeat with a short period, so every page holds
// Q6 matches, all four Q1 groups and Q14 matches.
MemTable BuildLineitem(PageLayout layout) {
  return BuildTable(
      "lineitem", tpch::LineitemSchema(), layout, 2'000,
      [](int row, storage::TupleWriter& w) {
        w.SetInt32(tpch::kLPartKey, row % kPartRows + 1);
        w.SetInt32(tpch::kLQuantity, row % 50 + 1);
        w.SetInt64(tpch::kLExtendedPrice, 1000 + row);
        w.SetInt32(tpch::kLDiscount, row % 11);
        w.SetInt32(tpch::kLTax, row % 9);
        static constexpr const char* kFlags[4][2] = {
            {"A", "F"}, {"N", "F"}, {"N", "O"}, {"R", "F"}};
        w.SetChar(tpch::kLReturnFlag, kFlags[row % 4][0]);
        w.SetChar(tpch::kLLineStatus, kFlags[row % 4][1]);
        // Alternates between Q6's year and Q14's month.
        w.SetInt32(tpch::kLShipDate,
                   row % 2 == 0 ? tpch::DateToDays(1994, 3, 1) + row % 7
                                : tpch::DateToDays(1995, 9, 5) + row % 7);
      });
}

MemTable BuildPart(PageLayout layout) {
  return BuildTable("part", tpch::PartSchema(), layout, kPartRows,
                    [](int row, storage::TupleWriter& w) {
                      w.SetInt32(tpch::kPPartKey, row + 1);
                      w.SetChar(tpch::kPType, row % 6 == 0 ? "PROMO TIN"
                                                           : "LARGE TIN");
                    });
}

// A SyntheticK table whose Col_1 rises with the row, so under a
// descending top-N every page's passing rows evict rows kept from
// earlier pages. Every other row passes TopNQuerySpec's Col_3 filter at
// selectivity 0.5.
MemTable BuildSynth(PageLayout layout) {
  return BuildTable("synth", tpch::SyntheticSchema(kSynthColumns), layout,
                    2'000, [](int row, storage::TupleWriter& w) {
                      w.SetInt32(0, row);
                      w.SetInt32(1, row % 97);
                      w.SetInt32(2, row % 2 == 0
                                        ? 0
                                        : static_cast<std::int32_t>(
                                              tpch::kSelectivityDomain - 1));
                    });
}

// Allocations made by pages 1.. of `outer`, after page 0 warmed up.
std::uint64_t AllocationsAfterFirstPage(const BoundQuery& bound,
                                        const MemTable& outer,
                                        const JoinHashTable* join,
                                        OpCounts* counts) {
  PageProcessor processor(&bound, join, KernelMode::kVectorized);
  SMARTSSD_CHECK(processor.kernel_mode() == KernelMode::kVectorized);
  std::vector<std::byte> out;
  SMARTSSD_CHECK(processor.ProcessPage(outer.pages[0], 0, counts, &out).ok());
  const std::uint64_t before = g_allocations.load();
  for (std::size_t p = 1; p < outer.pages.size(); ++p) {
    SMARTSSD_CHECK(
        processor.ProcessPage(outer.pages[p], p, counts, &out).ok());
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  SMARTSSD_CHECK(processor.Finish(counts, &out).ok());
  return allocations;
}

class KernelAllocTest : public ::testing::TestWithParam<PageLayout> {
 protected:
  KernelAllocTest()
      : lineitem_(BuildLineitem(GetParam())),
        part_(BuildPart(GetParam())),
        synth_(BuildSynth(GetParam())),
        catalog_(100000) {
    SMARTSSD_CHECK(catalog_.AddTable(lineitem_.info).ok());
    SMARTSSD_CHECK(catalog_.AddTable(part_.info).ok());
    SMARTSSD_CHECK(catalog_.AddTable(synth_.info).ok());
  }

  MemTable lineitem_;
  MemTable part_;
  MemTable synth_;
  storage::Catalog catalog_;
};

TEST_P(KernelAllocTest, Q6ShapeAllocatesNothingAfterFirstPage) {
  ASSERT_GT(lineitem_.pages.size(), 4u);
  const QuerySpec spec = tpch::Q6Spec("lineitem");
  auto bound = Bind(spec, catalog_);
  ASSERT_TRUE(bound.ok());
  OpCounts counts;
  EXPECT_EQ(AllocationsAfterFirstPage(*bound, lineitem_, nullptr, &counts),
            0u);
  EXPECT_GT(counts.agg_updates, 0u);
}

TEST_P(KernelAllocTest, Q1ShapeAllocatesNothingAfterFirstPage) {
  const QuerySpec spec = tpch::Q1Spec("lineitem");
  auto bound = Bind(spec, catalog_);
  ASSERT_TRUE(bound.ok());
  OpCounts counts;
  EXPECT_EQ(AllocationsAfterFirstPage(*bound, lineitem_, nullptr, &counts),
            0u);
  EXPECT_EQ(counts.output_tuples, 4u);  // the four groups
}

TEST_P(KernelAllocTest, Q14ShapeAllocatesNothingAfterFirstPage) {
  const QuerySpec spec = tpch::Q14Spec("lineitem", "part");
  auto bound = Bind(spec, catalog_);
  ASSERT_TRUE(bound.ok());
  OpCounts counts;
  auto join = BuildJoinHashTable(
      *bound,
      [&](std::uint64_t p) -> Result<std::span<const std::byte>> {
        return std::span<const std::byte>(part_.pages[p]);
      },
      &counts);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(AllocationsAfterFirstPage(*bound, lineitem_, &*join, &counts),
            0u);
  EXPECT_GT(counts.agg_updates, 0u);
}

TEST_P(KernelAllocTest, TopNShapeAllocatesNothingAfterFirstPage) {
  ASSERT_GT(synth_.pages.size(), 4u);
  // Page 0 holds far more than 10 passing rows, so it fills the heap;
  // later pages replace kept rows in place.
  const QuerySpec spec =
      tpch::TopNQuerySpec("synth", kSynthColumns, 0.5, /*limit=*/10);
  auto bound = Bind(spec, catalog_);
  ASSERT_TRUE(bound.ok());
  OpCounts counts;
  EXPECT_EQ(AllocationsAfterFirstPage(*bound, synth_, nullptr, &counts), 0u);
  EXPECT_EQ(counts.topn_updates, 1'000u);  // every passing row
  EXPECT_EQ(counts.output_tuples, 10u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, KernelAllocTest,
                         ::testing::Values(PageLayout::kNsm, PageLayout::kPax),
                         [](const auto& info) {
                           return std::string(
                               storage::PageLayoutName(info.param));
                         });

// Update passes over SF 0.01 LINEITEM through a pool that holds the
// whole table, so no dirty page is evicted and every page read after
// the first readahead batches is a pool hit or a miss into a free
// frame.
class UpdateAllocTest : public ::testing::TestWithParam<PageLayout> {
 protected:
  UpdateAllocTest() : db_(engine::DatabaseOptions::PaperSmartSsd()) {
    SMARTSSD_CHECK(
        tpch::LoadLineitem(db_, "lineitem", 0.01, GetParam()).ok());
    db_.ResetForColdRun();
  }

  // Allocations made by pages 1.. of an update pass with `predicate`,
  // after page 0 warmed the cursor up.
  std::uint64_t AllocationsAfterFirstPage(
      const expr::Expression& predicate,
      engine::TableUpdater::UpdateStats* stats) {
    const storage::TableInfo& info =
        *db_.catalog().GetTable("lineitem").value();
    SMARTSSD_CHECK_LE(info.page_count, db_.buffer_pool().capacity_pages());
    auto cursor = engine::UpdateCursor::Open(
        &db_, "lineitem", &predicate,
        [](const expr::RowView&, storage::TupleWriter& writer) {
          writer.SetInt32(tpch::kLQuantity, 0);
        });
    SMARTSSD_CHECK(cursor.ok());
    SMARTSSD_CHECK(cursor->kernel_mode() == KernelMode::kVectorized);
    SimTime t = cursor->StepPage(0).value();
    const std::uint64_t before = g_allocations.load();
    while (!cursor->done()) t = cursor->StepPage(t).value();
    const std::uint64_t allocations = g_allocations.load() - before;
    *stats = cursor->stats();
    return allocations;
  }

  engine::Database db_;
};

TEST_P(UpdateAllocTest, NoMatchPassAllocatesNothingAfterFirstPage) {
  const auto pred = expr::Lt(expr::Col(tpch::kLQuantity), expr::Lit(0));
  engine::TableUpdater::UpdateStats stats;
  EXPECT_EQ(AllocationsAfterFirstPage(*pred, &stats), 0u);
  EXPECT_EQ(stats.rows_matched, 0u);
  EXPECT_EQ(stats.pages_dirtied, 0u);
}

// l_orderkey = row / 4 + 1, so the window is rows 8,000..19,999: a run
// of pages well past page 0.
expr::ExprPtr KeyWindow() {
  std::vector<expr::ExprPtr> window;
  window.push_back(expr::Ge(expr::Col(tpch::kLOrderKey), expr::Lit(2'001)));
  window.push_back(expr::Le(expr::Col(tpch::kLOrderKey), expr::Lit(5'000)));
  return expr::And(std::move(window));
}

TEST_P(UpdateAllocTest, KeyWindowPassAllocatesNothingPerDirtiedPage) {
  engine::TableUpdater::UpdateStats stats;
  EXPECT_EQ(AllocationsAfterFirstPage(*KeyWindow(), &stats), 0u);
  EXPECT_EQ(stats.rows_matched, 12'000u);
  EXPECT_GT(stats.pages_dirtied, 10u);
}

// With a zone map, every dirtied page is refolded from its new image
// through the cursor's own NSM gather buffer: still no allocation.
TEST_P(UpdateAllocTest, KeyWindowPassRefoldsZoneMapWithoutAllocating) {
  ASSERT_TRUE(db_.BuildZoneMap("lineitem").ok());
  const storage::ZoneMap& map = *db_.zone_map("lineitem");
  const std::uint64_t in_window =
      12'000 / db_.catalog().GetTable("lineitem").value()->tuples_per_page;
  const std::uint64_t last_page = map.pages() - 1;
  EXPECT_FALSE(map.PageMayMatch(in_window, tpch::kLQuantity, 0, 0));
  engine::TableUpdater::UpdateStats stats;
  EXPECT_EQ(AllocationsAfterFirstPage(*KeyWindow(), &stats), 0u);
  EXPECT_EQ(stats.rows_matched, 12'000u);
  EXPECT_GT(stats.pages_dirtied, 10u);
  EXPECT_EQ(db_.zone_map("lineitem"), &map);
  // The page holding row 12,000 was rewritten with l_quantity 0; the
  // last page, past the window, was not.
  EXPECT_TRUE(map.PageMayMatch(in_window, tpch::kLQuantity, 0, 0));
  EXPECT_FALSE(map.PageMayMatch(last_page, tpch::kLQuantity, 0, 0));
}

INSTANTIATE_TEST_SUITE_P(Layouts, UpdateAllocTest,
                         ::testing::Values(PageLayout::kNsm, PageLayout::kPax),
                         [](const auto& info) {
                           return std::string(
                               storage::PageLayoutName(info.param));
                         });

}  // namespace
}  // namespace smartssd::exec
