// Zone-map-aware batch skipping: a PageProcessor armed with a zone map
// classifies whole pages as all-pass (skip predicate evaluation),
// all-fail (skip all per-row work), or mixed (normal batch path) — and
// must charge the EXACT OpCounts the un-armed interpreter charges for
// the rows it never touched, because the counts drive the virtual-time
// cost model. Every test runs the armed vectorized kernel against the
// scalar interpreter (no zone map, no page indexes) over identical
// pages and requires byte-identical rows, aggregates, and counts, on
// both layouts.
//
// The data is a sorted ramp (col0 == row index) over small pages, so a
// range predicate cleanly partitions the pages into all-pass, mixed,
// and all-fail — each classification is genuinely exercised, not just
// formally reachable.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "exec/batch_skip.h"
#include "exec/page_processor.h"
#include "exec/query_spec.h"
#include "storage/catalog.h"
#include "storage/page_codec.h"
#include "storage/tuple.h"
#include "storage/zone_map.h"

namespace smartssd::exec {
namespace {

namespace ex = ::smartssd::expr;
using storage::Column;
using storage::PageLayout;
using storage::Schema;

struct MemTable {
  storage::TableInfo info;
  std::vector<std::vector<std::byte>> pages;
  std::optional<storage::ZoneMap> zone_map;
};

Schema OuterSchema() {
  auto schema = Schema::Create({Column::Int32("k"), Column::Int32("fk"),
                                Column::Int32("v")});
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

Schema InnerSchema() {
  auto schema =
      Schema::Create({Column::Int32("pk"), Column::Int64("payload")});
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

// col0 is the sorted ramp the zone map prunes on; col1 is an FK for the
// join tests; col2 a value column for aggregates.
MemTable BuildOuter(PageLayout layout, int rows) {
  const Schema schema = OuterSchema();
  MemTable table;
  std::vector<std::byte> tuple(schema.tuple_size());
  storage::PageBuilder builder(&schema, layout, 512);
  auto seal = [&]() {
    table.pages.emplace_back(builder.image().begin(), builder.image().end());
    builder.Reset();
  };
  for (int row = 0; row < rows; ++row) {
    storage::TupleWriter w(&schema, tuple);
    w.SetInt32(0, row);
    w.SetInt32(1, row % 10);
    w.SetInt32(2, row * 2);
    if (!builder.Append(tuple)) {
      seal();
      SMARTSSD_CHECK(builder.Append(tuple));
    }
  }
  if (builder.tuple_count() > 0) seal();
  table.info = storage::TableInfo{
      .name = "outer",
      .schema = schema,
      .layout = layout,
      .first_lpn = 0,
      .page_count = table.pages.size(),
      .tuple_count = static_cast<std::uint64_t>(rows),
      .tuples_per_page = 0};
  table.zone_map = storage::ZoneMap::Build(
                       table.info,
                       [&](std::uint64_t p)
                           -> Result<std::span<const std::byte>> {
                         return std::span<const std::byte>(table.pages[p]);
                       })
                       .value();
  return table;
}

MemTable BuildInner(PageLayout layout) {
  const Schema schema = InnerSchema();
  MemTable table;
  std::vector<std::byte> tuple(schema.tuple_size());
  storage::PageBuilder builder(&schema, layout, 512);
  for (int row = 0; row < 10; ++row) {
    storage::TupleWriter w(&schema, tuple);
    w.SetInt32(0, row);
    w.SetInt64(1, 1000 + row);
    SMARTSSD_CHECK(builder.Append(tuple));
  }
  table.pages.emplace_back(builder.image().begin(), builder.image().end());
  table.info = storage::TableInfo{.name = "inner",
                                  .schema = schema,
                                  .layout = layout,
                                  .first_lpn = 100,
                                  .page_count = 1,
                                  .tuple_count = 10,
                                  .tuples_per_page = 10};
  return table;
}

struct RunOutput {
  std::vector<std::byte> rows;
  OpCounts counts;
  std::vector<std::int64_t> aggs;
};

// `armed` drives the vectorized kernel with the zone map and real page
// indexes; un-armed drives the scalar interpreter with neither.
RunOutput RunKernel(const BoundQuery& bound, const MemTable& outer,
                    const MemTable* inner, bool armed) {
  RunOutput output;
  std::optional<JoinHashTable> hash_table;
  if (inner != nullptr) {
    auto table = BuildJoinHashTable(
        bound,
        [&](std::uint64_t p) -> Result<std::span<const std::byte>> {
          return std::span<const std::byte>(inner->pages[p]);
        },
        &output.counts);
    SMARTSSD_CHECK(table.ok());
    hash_table.emplace(std::move(table).value());
  }
  PageProcessor processor(
      &bound, hash_table.has_value() ? &*hash_table : nullptr,
      armed ? KernelMode::kVectorized : KernelMode::kScalar);
  if (armed) {
    SMARTSSD_CHECK(processor.kernel_mode() == KernelMode::kVectorized);
    processor.SetZoneMap(&*outer.zone_map);
  }
  for (std::size_t p = 0; p < outer.pages.size(); ++p) {
    if (armed) {
      SMARTSSD_CHECK(processor
                         .ProcessPage(outer.pages[p], p, &output.counts,
                                      &output.rows)
                         .ok());
    } else {
      SMARTSSD_CHECK(processor
                         .ProcessPage(outer.pages[p], &output.counts,
                                      &output.rows)
                         .ok());
    }
  }
  SMARTSSD_CHECK(processor.Finish(&output.counts, &output.rows).ok());
  output.aggs = processor.agg_state();
  return output;
}

// Runs `spec` on both layouts: scalar interpreter (ground truth)
// vs zone-map-armed vectorized kernel. Returns the NSM reference.
RunOutput CheckArmedKernel(const QuerySpec& spec, int rows,
                           bool with_inner = false) {
  RunOutput reference;
  for (const PageLayout layout : {PageLayout::kNsm, PageLayout::kPax}) {
    const MemTable outer = BuildOuter(layout, rows);
    const MemTable inner = BuildInner(layout);
    storage::Catalog catalog(100000);
    SMARTSSD_CHECK(catalog.AddTable(outer.info).ok());
    if (with_inner) SMARTSSD_CHECK(catalog.AddTable(inner.info).ok());
    auto bound = Bind(spec, catalog);
    SMARTSSD_CHECK(bound.ok());

    const RunOutput scalar = RunKernel(
        *bound, outer, with_inner ? &inner : nullptr, /*armed=*/false);
    const RunOutput armed = RunKernel(
        *bound, outer, with_inner ? &inner : nullptr, /*armed=*/true);

    EXPECT_EQ(scalar.rows, armed.rows);
    EXPECT_EQ(scalar.aggs, armed.aggs);
    EXPECT_EQ(scalar.counts == armed.counts, true)
        << "operation counts diverged with zone-map skipping";
    if (layout == PageLayout::kNsm) reference = scalar;
  }
  return reference;
}

// The sorted ramp classifications are real: with 200 rows over 512-byte
// pages a `col0 < 60` predicate gives leading all-pass pages, one mixed
// page, and trailing all-fail pages.
TEST(BatchSkipTest, MixedAllPassAllFailProjection) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Lt(ex::Col(0), ex::Lit(60));
  spec.projection = {0, 2};
  const RunOutput out = CheckArmedKernel(spec, /*rows=*/200);
  EXPECT_EQ(out.counts.output_tuples, 60u);
}

TEST(BatchSkipTest, AllFailEverywhere) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Lt(ex::Col(0), ex::Lit(0));
  spec.projection = {0};
  const RunOutput out = CheckArmedKernel(spec, /*rows=*/200);
  EXPECT_EQ(out.rows.size(), 0u);
  EXPECT_EQ(out.counts.output_tuples, 0u);
}

TEST(BatchSkipTest, AllPassEverywhereAggregate) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Ge(ex::Col(0), ex::Lit(0));
  spec.aggregates.push_back({AggSpec::Fn::kSum, ex::Col(2), "sum_v"});
  const RunOutput out = CheckArmedKernel(spec, /*rows=*/200);
  EXPECT_EQ(out.aggs[0], 199 * 200);  // sum of 2*row for row in [0,200)
}

TEST(BatchSkipTest, RangeConjunctionAggregate) {
  // col0 >= 40 AND col0 < 120: all-fail prefix pages settle at the
  // first conjunct, all-pass pages must charge the full 2-conjunct
  // chain, the suffix fails at the second conjunct.
  QuerySpec spec;
  spec.table = "outer";
  std::vector<ex::ExprPtr> conjuncts;
  conjuncts.push_back(ex::Ge(ex::Col(0), ex::Lit(40)));
  conjuncts.push_back(ex::Lt(ex::Col(0), ex::Lit(120)));
  spec.predicate = ex::And(std::move(conjuncts));
  spec.aggregates.push_back({AggSpec::Fn::kCount, nullptr, "cnt"});
  const RunOutput out = CheckArmedKernel(spec, /*rows=*/200);
  EXPECT_EQ(out.aggs[0], 80);
}

// Regression: an empty predicate interval (lo > hi) — "col0 > 120 AND
// col0 < 40" — must classify all-fail with the exact short-circuit
// cost, not underflow or charge a negative interval.
TEST(BatchSkipTest, EmptyIntervalPredicate) {
  QuerySpec spec;
  spec.table = "outer";
  std::vector<ex::ExprPtr> conjuncts;
  conjuncts.push_back(ex::Gt(ex::Col(0), ex::Lit(120)));
  conjuncts.push_back(ex::Lt(ex::Col(0), ex::Lit(40)));
  spec.predicate = ex::And(std::move(conjuncts));
  spec.projection = {0};
  const RunOutput out = CheckArmedKernel(spec, /*rows=*/200);
  EXPECT_EQ(out.rows.size(), 0u);
  EXPECT_EQ(out.counts.output_tuples, 0u);
}

TEST(BatchSkipTest, EqAndNePredicates) {
  {
    // Equality on the ramp: exactly one row, one mixed page, the rest
    // all-fail.
    QuerySpec spec;
    spec.table = "outer";
    spec.predicate = ex::Eq(ex::Col(0), ex::Lit(77));
    spec.projection = {0, 2};
    const RunOutput out = CheckArmedKernel(spec, /*rows=*/200);
    EXPECT_EQ(out.counts.output_tuples, 1u);
  }
  {
    // Ne never prunes via merged ranges but the batch classifier can
    // settle constant pages; on the ramp every page is mixed-or-pass.
    QuerySpec spec;
    spec.table = "outer";
    spec.predicate = ex::Compare(ex::CompareOp::kNe, ex::Col(0), ex::Lit(77));
    spec.aggregates.push_back({AggSpec::Fn::kCount, nullptr, "cnt"});
    const RunOutput out = CheckArmedKernel(spec, /*rows=*/200);
    EXPECT_EQ(out.aggs[0], 199);
  }
}

// Non-conforming leading conjunct (arithmetic on the column) defeats
// the classifier — every page must take the mixed path and still agree.
TEST(BatchSkipTest, NonConformingPredicateStaysMixed) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Lt(ex::Add(ex::Col(0), ex::Lit(1)), ex::Lit(61));
  spec.projection = {0};
  const RunOutput out = CheckArmedKernel(spec, /*rows=*/200);
  EXPECT_EQ(out.counts.output_tuples, 60u);
}

// Joins under both pipeline orders: probe-first charges probes for the
// whole page before the filter, so the all-pass/all-fail charging has
// to account for survivors, not raw rows.
TEST(BatchSkipTest, JoinBothPipelineOrders) {
  for (const PipelineOrder order :
       {PipelineOrder::kFilterFirst, PipelineOrder::kProbeFirst}) {
    QuerySpec spec;
    spec.table = "outer";
    spec.order = order;
    spec.join = JoinSpec{.inner_table = "inner",
                         .outer_key_col = 1,
                         .inner_key_col = 0,
                         .inner_payload_cols = {1}};
    spec.predicate = ex::Lt(ex::Col(0), ex::Lit(60));
    spec.aggregates.push_back({AggSpec::Fn::kSum, ex::Col(3), "sum_p"});
    const RunOutput out =
        CheckArmedKernel(spec, /*rows=*/200, /*with_inner=*/true);
    EXPECT_EQ(out.counts.output_tuples, 1u);  // one aggregate row
  }
}

// Direct unit coverage of the classifier verdicts, including the
// empty-interval short circuit.
TEST(BatchSkipTest, AnalysisClassifiesPerPage) {
  const MemTable outer = BuildOuter(PageLayout::kNsm, 200);
  storage::Catalog catalog(100000);
  SMARTSSD_CHECK(catalog.AddTable(outer.info).ok());
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Lt(ex::Col(0), ex::Lit(60));
  spec.projection = {0};
  auto bound = Bind(spec, catalog);
  SMARTSSD_CHECK(bound.ok());

  const BatchSkipAnalysis analysis(bound->spec->predicate.get(),
                                   &*outer.zone_map,
                                   bound->outer_columns());
  ASSERT_TRUE(analysis.usable());
  expr::EvalStats per_row;
  // Page 0 holds rows [0, ~30): strictly below 60 -> all-pass, charged
  // one comparison + one column read per row.
  EXPECT_EQ(analysis.Classify(0, &per_row), PageClass::kAllPass);
  EXPECT_EQ(per_row.comparisons, 1u);
  EXPECT_EQ(per_row.column_reads, 1u);
  // The last page holds rows well above 60 -> all-fail.
  EXPECT_EQ(analysis.Classify(outer.pages.size() - 1, &per_row),
            PageClass::kAllFail);
  // A page index past the map is mixed (the safe answer), not a crash.
  EXPECT_EQ(analysis.Classify(outer.pages.size() + 5, &per_row),
            PageClass::kMixed);

  // No zone map -> analysis unusable.
  const BatchSkipAnalysis unarmed(bound->spec->predicate.get(), nullptr,
                                  bound->outer_columns());
  EXPECT_FALSE(unarmed.usable());
}

}  // namespace
}  // namespace smartssd::exec
