// Differential tests for the vectorized batch kernel: every query shape
// runs through both the scalar (interpreted, tuple-at-a-time) kernel
// and the vectorized (selection-vector) kernel over identical pages,
// and the outputs must match byte for byte — rows, aggregates, AND
// operation counts, since the counts drive the virtual-time cost model.
// Edge cases that selection-vector code tends to get wrong are covered
// explicitly: empty pages, all-pass/all-fail predicates, a single-row
// batch, and INT64_MIN/MAX boundary literals.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "exec/page_processor.h"
#include "exec/query_spec.h"
#include "expr/batch.h"
#include "storage/catalog.h"
#include "storage/page_codec.h"
#include "storage/pax_page.h"
#include "storage/tuple.h"

namespace smartssd::exec {
namespace {

namespace ex = ::smartssd::expr;
using storage::Column;
using storage::PageLayout;
using storage::Schema;

// In-memory table: page images + catalog entry (no device).
struct MemTable {
  storage::TableInfo info;
  std::vector<std::vector<std::byte>> pages;
};

Schema OuterSchema() {
  auto schema = Schema::Create({Column::Int32("k"), Column::Int32("fk"),
                                Column::Int32("v"),
                                Column::FixedChar("tag", 4)});
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

Schema InnerSchema() {
  auto schema =
      Schema::Create({Column::Int32("pk"), Column::Int64("payload")});
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

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
    w.SetInt32(1, row % 10);  // FK into inner keys 0..9
    w.SetInt32(2, row * 2);
    w.SetChar(3, row % 3 == 0 ? "abXX" : "cdXX");
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
  KernelMode effective_mode = KernelMode::kScalar;
};

RunOutput RunKernel(const BoundQuery& bound, const MemTable& outer,
                    const MemTable* inner, KernelMode mode) {
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
      &bound, hash_table.has_value() ? &*hash_table : nullptr, mode);
  output.effective_mode = processor.kernel_mode();
  for (const auto& page : outer.pages) {
    SMARTSSD_CHECK(
        processor.ProcessPage(page, &output.counts, &output.rows).ok());
  }
  SMARTSSD_CHECK(processor.Finish(&output.counts, &output.rows).ok());
  output.aggs = processor.agg_state();
  return output;
}

// Runs `spec` through both kernels on both layouts; the vectorized run
// must actually use the batch kernel (no silent scalar fallback) and
// agree with the scalar run on rows, aggregates, and operation counts.
// Returns the scalar NSM output for shape-specific assertions.
RunOutput CheckBothKernels(const QuerySpec& spec, int rows,
                           bool with_inner = false,
                           bool expect_vectorized = true) {
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
        *bound, outer, with_inner ? &inner : nullptr, KernelMode::kScalar);
    const RunOutput vectorized =
        RunKernel(*bound, outer, with_inner ? &inner : nullptr,
                  KernelMode::kVectorized);

    EXPECT_EQ(scalar.effective_mode, KernelMode::kScalar);
    if (expect_vectorized) {
      EXPECT_EQ(vectorized.effective_mode, KernelMode::kVectorized)
          << "query fell back to the scalar kernel; test would be vacuous";
    }
    EXPECT_EQ(scalar.rows, vectorized.rows);
    EXPECT_EQ(scalar.aggs, vectorized.aggs);
    EXPECT_EQ(scalar.counts == vectorized.counts, true)
        << "operation counts diverged between kernels";
    if (layout == PageLayout::kNsm) reference = scalar;
  }
  return reference;
}

TEST(BatchKernelTest, EmptyTableProducesNothing) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Lt(ex::Col(0), ex::Lit(10));
  spec.projection = {0, 2};
  const RunOutput out = CheckBothKernels(spec, /*rows=*/0);
  EXPECT_EQ(out.rows.size(), 0u);
  EXPECT_EQ(out.counts.tuples, 0u);
}

TEST(BatchKernelTest, SingleRowBatch) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Ge(ex::Col(0), ex::Lit(0));
  spec.projection = {0, 1, 2};
  const RunOutput out = CheckBothKernels(spec, /*rows=*/1);
  EXPECT_EQ(out.counts.tuples, 1u);
  EXPECT_EQ(out.counts.output_tuples, 1u);
}

TEST(BatchKernelTest, AllPassPredicate) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Ge(ex::Col(0), ex::Lit(0));
  spec.projection = {0, 2};
  const RunOutput out = CheckBothKernels(spec, /*rows=*/100);
  EXPECT_EQ(out.counts.output_tuples, 100u);
}

TEST(BatchKernelTest, AllFailPredicate) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Lt(ex::Col(0), ex::Lit(0));
  spec.projection = {0, 2};
  const RunOutput out = CheckBothKernels(spec, /*rows=*/100);
  EXPECT_EQ(out.counts.output_tuples, 0u);
  EXPECT_EQ(out.rows.size(), 0u);
}

TEST(BatchKernelTest, Int64BoundaryLiterals) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  {
    QuerySpec spec;
    spec.table = "outer";
    spec.predicate = ex::Gt(ex::Col(0), ex::Lit(kMin));  // all pass
    spec.projection = {0};
    const RunOutput out = CheckBothKernels(spec, /*rows=*/50);
    EXPECT_EQ(out.counts.output_tuples, 50u);
  }
  {
    QuerySpec spec;
    spec.table = "outer";
    spec.predicate = ex::Gt(ex::Col(0), ex::Lit(kMax));  // none pass
    spec.projection = {0};
    const RunOutput out = CheckBothKernels(spec, /*rows=*/50);
    EXPECT_EQ(out.counts.output_tuples, 0u);
  }
  {
    QuerySpec spec;
    spec.table = "outer";
    spec.predicate = ex::Le(ex::Col(0), ex::Lit(kMax));  // all pass
    spec.aggregates.push_back({AggSpec::Fn::kCount, nullptr, "cnt"});
    const RunOutput out = CheckBothKernels(spec, /*rows=*/50);
    EXPECT_EQ(out.aggs[0], 50);
  }
}

TEST(BatchKernelTest, ShortCircuitAndOrCounts) {
  // AND/OR evaluate children left-to-right with short-circuiting, so
  // the per-child evaluation counts depend on earlier children's
  // results — the exact thing selection-narrowing must reproduce.
  QuerySpec spec;
  spec.table = "outer";
  std::vector<ex::ExprPtr> disjuncts;
  disjuncts.push_back(ex::Lt(ex::Col(0), ex::Lit(5)));
  disjuncts.push_back(ex::Ge(ex::Col(2), ex::Lit(150)));
  std::vector<ex::ExprPtr> conjuncts;
  conjuncts.push_back(ex::Or(std::move(disjuncts)));
  conjuncts.push_back(ex::Lt(ex::Col(1), ex::Lit(8)));
  conjuncts.push_back(ex::Not(ex::Eq(ex::Col(0), ex::Lit(3))));
  spec.predicate = ex::And(std::move(conjuncts));
  spec.projection = {0, 2};
  CheckBothKernels(spec, /*rows=*/100);
}

TEST(BatchKernelTest, CaseWhenWithLikeAndArithmetic) {
  // The TPC-H Q14 shape: CASE WHEN tag LIKE 'ab%' THEN v*3 ELSE v+1.
  QuerySpec spec;
  spec.table = "outer";
  spec.aggregates.push_back(
      {AggSpec::Fn::kSum,
       ex::CaseWhen(ex::LikePrefix(ex::Col(3), "ab"),
                    ex::Mul(ex::Col(2), ex::Lit(3)),
                    ex::Add(ex::Col(2), ex::Lit(1))),
       "case_sum"});
  const RunOutput out = CheckBothKernels(spec, /*rows=*/97);
  ASSERT_EQ(out.aggs.size(), 1u);
}

TEST(BatchKernelTest, GroupByMatchesScalarKernel) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Ge(ex::Col(0), ex::Lit(7));
  spec.aggregates.push_back({AggSpec::Fn::kSum, ex::Col(2), "sum_v"});
  spec.aggregates.push_back({AggSpec::Fn::kCount, nullptr, "cnt"});
  spec.aggregates.push_back({AggSpec::Fn::kMax, ex::Col(0), "max_k"});
  spec.group_by = {1};  // fk: 10 groups
  const RunOutput out = CheckBothKernels(spec, /*rows=*/200);
  // 10 groups of (fk, sum, cnt, max) = 4 + 3*8 bytes.
  EXPECT_EQ(out.rows.size(), 10u * (4u + 3u * 8u));
}

TEST(BatchKernelTest, JoinFilterFirstAndProbeFirst) {
  for (const PipelineOrder order :
       {PipelineOrder::kFilterFirst, PipelineOrder::kProbeFirst}) {
    QuerySpec spec;
    spec.table = "outer";
    spec.order = order;
    spec.join = JoinSpec{.inner_table = "inner",
                         .outer_key_col = 1,
                         .inner_key_col = 0,
                         .inner_payload_cols = {1}};
    spec.predicate = ex::Lt(ex::Col(1), ex::Lit(4));
    // Aggregate over the joined payload (combined column 4).
    spec.aggregates.push_back({AggSpec::Fn::kSum, ex::Col(4), "sum_p"});
    CheckBothKernels(spec, /*rows=*/150, /*with_inner=*/true);
  }
}

TEST(BatchKernelTest, TopNMatchesScalarKernel) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Lt(ex::Col(1), ex::Lit(7));
  spec.projection = {0, 2};
  spec.top_n = TopNSpec{.order_col = 0, .descending = true, .limit = 13};
  const RunOutput out = CheckBothKernels(spec, /*rows=*/120);
  EXPECT_EQ(out.rows.size(), 13u * 8u);
}

TEST(BatchKernelTest, NoPredicateScanAggregate) {
  QuerySpec spec;
  spec.table = "outer";
  spec.aggregates.push_back({AggSpec::Fn::kSum, ex::Col(2), "sum_v"});
  spec.aggregates.push_back({AggSpec::Fn::kMin, ex::Col(0), "min_k"});
  const RunOutput out = CheckBothKernels(spec, /*rows=*/64);
  ASSERT_EQ(out.aggs.size(), 2u);
  EXPECT_EQ(out.aggs[1], 0);
}

TEST(BatchKernelTest, UniformLiteralOnlyPredicate) {
  // A predicate with no column reference compiles to uniform slots:
  // the whole batch passes or fails on one scalar evaluation, but the
  // charged counts must still be per-row like the interpreter's.
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = ex::Lt(ex::Lit(1), ex::Lit(2));  // always true
  spec.projection = {0};
  const RunOutput out = CheckBothKernels(spec, /*rows=*/40);
  EXPECT_EQ(out.counts.output_tuples, 40u);
  EXPECT_EQ(out.counts.eval.comparisons, 40u);
}

TEST(BatchKernelTest, SharedScratchMatchesFreshScratch) {
  // One BatchScratch serves a 9-slot predicate (with a saved selection)
  // and a 3-slot INT64 expression in turn. It grows to the larger
  // program and never shrinks, so B reuses A's slots and A then reuses
  // slots B overwrote: results and charged counts must equal those of
  // a fresh scratch every time.
  const Schema schema = OuterSchema();
  const MemTable outer = BuildOuter(PageLayout::kPax, /*rows=*/31);
  ASSERT_EQ(outer.pages.size(), 1u);
  auto reader = storage::PaxPageReader::Open(&schema, outer.pages[0]);
  ASSERT_TRUE(reader.ok());
  std::vector<ex::BatchColumn> columns(
      static_cast<std::size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    ex::BatchColumn& col = columns[static_cast<std::size_t>(c)];
    col.type = schema.column(c).type;
    col.width = schema.column(c).width;
    col.base = reader->column_data(c);
    col.stride = col.width;
  }
  const ex::BatchInput in{columns.data(),
                          static_cast<int>(columns.size())};

  std::vector<ex::ExprPtr> disjuncts;
  disjuncts.push_back(
      ex::Lt(ex::Add(ex::Col(0), ex::Lit(1)), ex::Lit(10)));
  disjuncts.push_back(ex::Ge(ex::Col(2), ex::Lit(40)));
  const ex::ExprPtr pred = ex::Or(std::move(disjuncts));
  const ex::ExprPtr value = ex::Add(ex::Col(2), ex::Lit(5));
  auto a = ex::CompiledExpr::Compile(*pred, schema);
  auto b = ex::CompiledExpr::Compile(*value, schema);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_slots(), 9);
  EXPECT_EQ(b->num_slots(), 3);

  ex::SelVec all(reader->tuple_count());
  std::iota(all.begin(), all.end(), 0u);
  auto run_a = [&](ex::BatchScratch* scratch, ex::EvalStats* stats) {
    ex::SelVec sel = all;
    a->Filter(in, &sel, scratch, stats);
    return sel;
  };
  auto run_b = [&](const ex::SelVec& sel, ex::BatchScratch* scratch,
                   ex::EvalStats* stats) {
    const std::span<const std::int64_t> vals =
        b->EvalI64(in, sel, scratch, stats);
    return std::vector<std::int64_t>(vals.begin(), vals.end());
  };

  ex::BatchScratch shared;
  ex::EvalStats shared_stats[3];
  const ex::SelVec a1 = run_a(&shared, &shared_stats[0]);
  const std::vector<std::int64_t> b1 = run_b(a1, &shared, &shared_stats[1]);
  const ex::SelVec a2 = run_a(&shared, &shared_stats[2]);

  ex::BatchScratch fresh[3];
  ex::EvalStats fresh_stats[3];
  const ex::SelVec want_a = run_a(&fresh[0], &fresh_stats[0]);
  const std::vector<std::int64_t> want_b =
      run_b(want_a, &fresh[1], &fresh_stats[1]);
  EXPECT_EQ(run_a(&fresh[2], &fresh_stats[2]), want_a);

  EXPECT_FALSE(want_a.empty());
  EXPECT_LT(want_a.size(), all.size());
  EXPECT_EQ(a1, want_a);
  EXPECT_EQ(b1, want_b);
  EXPECT_EQ(a2, want_a);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(shared_stats[i], fresh_stats[i]) << "run " << i;
  }
}

}  // namespace
}  // namespace smartssd::exec
