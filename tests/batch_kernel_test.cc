// Differential tests for the vectorized batch kernel: every query shape
// runs through both the scalar (interpreted, tuple-at-a-time) kernel
// and the vectorized (selection-vector) kernel over identical pages,
// under the portable ISA and this CPU's best one, and the outputs must
// match byte for byte — rows, aggregates, AND operation counts, since
// the counts drive the virtual-time cost model. Edge cases that
// selection-vector code tends to get wrong are covered explicitly:
// empty pages, all-pass/all-fail predicates, a single-row batch,
// INT64_MIN/MAX boundary literals, the narrowing compare's dense and
// gathered forms, and subexpressions repeated across aggregates.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "exec/page_processor.h"
#include "exec/query_spec.h"
#include "expr/batch.h"
#include "expr/kernel_isa.h"
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
                                Column::FixedChar("tag", 4),
                                Column::Int64("big")});
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

Schema InnerSchema() {
  auto schema =
      Schema::Create({Column::Int32("pk"), Column::Int64("payload")});
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

// The page size of every outer table but the narrowing cases', whose
// pages hold enough survivors for whole 8-lane SIMD steps.
constexpr std::uint32_t kPageSize = 512;
constexpr std::uint32_t kWidePageSize = 4096;

// Column "big" spans far beyond the int32 range, both signs.
std::int64_t BigValue(int row) {
  return static_cast<std::int64_t>(row) * 1'000'000'007LL - 40'000'000'000LL;
}

MemTable BuildOuter(PageLayout layout, int rows,
                    std::uint32_t page_size = kPageSize) {
  const Schema schema = OuterSchema();
  MemTable table;
  std::vector<std::byte> tuple(schema.tuple_size());
  storage::PageBuilder builder(&schema, layout, page_size);
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
    w.SetInt64(4, BigValue(row));
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

// The columns of a one-page PAX table, for running a compiled program
// on its own; the page's row count goes to *rows.
std::vector<ex::BatchColumn> PaxColumns(const Schema& schema,
                                        const MemTable& table,
                                        std::uint16_t* rows) {
  SMARTSSD_CHECK_EQ(table.pages.size(), 1u);
  auto reader = storage::PaxPageReader::Open(&schema, table.pages[0]);
  SMARTSSD_CHECK(reader.ok());
  std::vector<ex::BatchColumn> columns(
      static_cast<std::size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    ex::BatchColumn& col = columns[static_cast<std::size_t>(c)];
    col.type = schema.column(c).type;
    col.width = schema.column(c).width;
    col.base = reader->column_data(c);
    col.stride = col.width;
  }
  *rows = reader->tuple_count();
  return columns;
}

// Runs `spec` through both kernels on both layouts, the vectorized one
// under the portable ISA and under this CPU's best; each vectorized run
// must actually use the batch kernel (no silent scalar fallback) and
// agree with the scalar run on rows, aggregates, and operation counts.
// Returns the scalar NSM output for shape-specific assertions.
RunOutput CheckBothKernels(const QuerySpec& spec, int rows,
                           bool with_inner = false,
                           bool expect_vectorized = true,
                           std::uint32_t page_size = kPageSize) {
  RunOutput reference;
  for (const PageLayout layout : {PageLayout::kNsm, PageLayout::kPax}) {
    const MemTable outer = BuildOuter(layout, rows, page_size);
    const MemTable inner = BuildInner(layout);
    storage::Catalog catalog(100000);
    SMARTSSD_CHECK(catalog.AddTable(outer.info).ok());
    if (with_inner) SMARTSSD_CHECK(catalog.AddTable(inner.info).ok());
    auto bound = Bind(spec, catalog);
    SMARTSSD_CHECK(bound.ok());

    const RunOutput scalar = RunKernel(
        *bound, outer, with_inner ? &inner : nullptr, KernelMode::kScalar);
    EXPECT_EQ(scalar.effective_mode, KernelMode::kScalar);
    for (const ex::KernelIsa isa :
         {ex::KernelIsa::kScalarIsa, ex::DetectKernelIsa()}) {
      const ex::ScopedKernelIsa scoped(isa);
      const RunOutput vectorized =
          RunKernel(*bound, outer, with_inner ? &inner : nullptr,
                    KernelMode::kVectorized);
      SCOPED_TRACE(std::string(ex::KernelIsaName(isa)) +
                   (layout == PageLayout::kNsm ? " nsm" : " pax"));
      if (expect_vectorized) {
        EXPECT_EQ(vectorized.effective_mode, KernelMode::kVectorized)
            << "query fell back to the scalar kernel; test would be vacuous";
      }
      EXPECT_EQ(scalar.rows, vectorized.rows);
      EXPECT_EQ(scalar.aggs, vectorized.aggs);
      EXPECT_EQ(scalar.counts == vectorized.counts, true)
          << "operation counts diverged between kernels";
    }
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
    // Aggregate over the joined payload (combined column 5).
    spec.aggregates.push_back({AggSpec::Fn::kSum, ex::Col(5), "sum_p"});
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
  // and a 3-slot INT64 value program in turn. It grows to the larger
  // program and never shrinks, so B reuses A's slots and A then reuses
  // slots B overwrote: results and charged counts must equal those of
  // a fresh scratch every time.
  const Schema schema = OuterSchema();
  const MemTable outer =
      BuildOuter(PageLayout::kPax, /*rows=*/31, kWidePageSize);
  std::uint16_t rows = 0;
  const std::vector<ex::BatchColumn> columns =
      PaxColumns(schema, outer, &rows);
  const ex::BatchInput in{columns.data(),
                          static_cast<int>(columns.size())};

  std::vector<ex::ExprPtr> disjuncts;
  disjuncts.push_back(
      ex::Lt(ex::Add(ex::Col(0), ex::Lit(1)), ex::Lit(10)));
  disjuncts.push_back(ex::Ge(ex::Col(2), ex::Lit(40)));
  const ex::ExprPtr pred = ex::Or(std::move(disjuncts));
  const ex::ExprPtr value = ex::Add(ex::Col(2), ex::Lit(5));
  auto a = ex::CompiledExpr::CompilePredicate(*pred, schema);
  const ex::Expression* values[] = {value.get()};
  auto b = ex::CompiledExpr::CompileValues(values, schema);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_slots(), 9);
  EXPECT_EQ(b->num_slots(), 3);

  ex::SelVec all(rows);
  std::iota(all.begin(), all.end(), 0u);
  auto run_a = [&](ex::BatchScratch* scratch, ex::EvalStats* stats) {
    ex::SelVec sel = all;
    a->Filter(in, &sel, scratch, stats);
    return sel;
  };
  auto run_b = [&](const ex::SelVec& sel, ex::BatchScratch* scratch,
                   ex::EvalStats* stats) {
    b->Eval(in, sel, scratch, stats);
    const std::int64_t* vals = b->Values(0, *scratch);
    return std::vector<std::int64_t>(vals, vals + sel.size());
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

constexpr ex::CompareOp kAllOps[] = {ex::CompareOp::kEq, ex::CompareOp::kNe,
                                     ex::CompareOp::kLt, ex::CompareOp::kLe,
                                     ex::CompareOp::kGt, ex::CompareOp::kGe};

// Rows of the narrowing cases: wide pages of about 160 rows, so both
// the dense and the gathered SIMD forms run whole 8-lane steps and
// then a tail.
constexpr int kNarrowRows = 700;

QuerySpec ProjectWhere(ex::ExprPtr predicate) {
  QuerySpec spec;
  spec.table = "outer";
  spec.predicate = std::move(predicate);
  spec.projection = {0, 2, 4};
  return spec;
}

// fk < 6 keeps six rows in ten, so the conjunct after it reads sparse
// lanes.
ex::ExprPtr AfterSparseLanes(ex::ExprPtr conjunct) {
  std::vector<ex::ExprPtr> conjuncts;
  conjuncts.push_back(ex::Lt(ex::Col(1), ex::Lit(6)));
  conjuncts.push_back(std::move(conjunct));
  return ex::And(std::move(conjuncts));
}

TEST(BatchKernelTest, NarrowingInt32AgainstOutOfRangeLiterals) {
  // Every int32 value lies below the first literal and above the
  // second, so each operator passes all rows or none.
  constexpr std::int64_t kAbove =
      std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1;
  constexpr std::int64_t kBelow =
      std::int64_t{std::numeric_limits<std::int32_t>::min()} - 1;
  for (const ex::CompareOp op : kAllOps) {
    for (const std::int64_t lit : {kAbove, kBelow}) {
      SCOPED_TRACE(static_cast<int>(op));
      const bool all_pass =
          lit == kAbove ? (op == ex::CompareOp::kNe ||
                           op == ex::CompareOp::kLt ||
                           op == ex::CompareOp::kLe)
                        : (op == ex::CompareOp::kNe ||
                           op == ex::CompareOp::kGt ||
                           op == ex::CompareOp::kGe);
      const RunOutput dense = CheckBothKernels(
          ProjectWhere(ex::Compare(op, ex::Col(2), ex::Lit(lit))),
          kNarrowRows, false, true, kWidePageSize);
      EXPECT_EQ(dense.counts.output_tuples, all_pass ? kNarrowRows : 0u);
      CheckBothKernels(ProjectWhere(AfterSparseLanes(
                           ex::Compare(op, ex::Col(0), ex::Lit(lit)))),
                       kNarrowRows, false, true, kWidePageSize);
    }
  }
}

TEST(BatchKernelTest, NarrowingInt64Column) {
  for (const ex::CompareOp op : kAllOps) {
    SCOPED_TRACE(static_cast<int>(op));
    const RunOutput dense = CheckBothKernels(
        ProjectWhere(ex::Compare(op, ex::Col(4), ex::Lit(BigValue(337)))),
        kNarrowRows, false, true, kWidePageSize);
    EXPECT_GT(dense.counts.eval.comparisons, 0u);
    CheckBothKernels(ProjectWhere(AfterSparseLanes(ex::Compare(
                         op, ex::Col(4), ex::Lit(BigValue(411))))),
                     kNarrowRows, false, true, kWidePageSize);
  }
}

TEST(BatchKernelTest, NarrowingDenseAndSparseSurvivors) {
  // k >= 0 keeps every row (dense); k < 500 keeps whole pages and then
  // a prefix of one (still dense); fk <> 7 leaves sparse lanes, which
  // the int32 and int64 conjuncts after it gather.
  std::vector<ex::ExprPtr> conjuncts;
  conjuncts.push_back(ex::Ge(ex::Col(0), ex::Lit(0)));
  conjuncts.push_back(ex::Lt(ex::Col(0), ex::Lit(500)));
  conjuncts.push_back(ex::Compare(ex::CompareOp::kNe, ex::Col(1), ex::Lit(7)));
  conjuncts.push_back(ex::Gt(ex::Col(2), ex::Lit(100)));
  conjuncts.push_back(ex::Le(ex::Col(4), ex::Lit(BigValue(450))));
  const RunOutput out =
      CheckBothKernels(ProjectWhere(ex::And(std::move(conjuncts))),
                       kNarrowRows, false, true, kWidePageSize);
  EXPECT_GT(out.counts.output_tuples, 0u);
  EXPECT_LT(out.counts.output_tuples, 500u);
}

TEST(BatchKernelTest, NarrowingLiteralOnTheLeft) {
  for (const ex::CompareOp op : kAllOps) {
    SCOPED_TRACE(static_cast<int>(op));
    CheckBothKernels(ProjectWhere(ex::Compare(op, ex::Lit(300), ex::Col(2))),
                     kNarrowRows, false, true, kWidePageSize);
    CheckBothKernels(ProjectWhere(AfterSparseLanes(
                         ex::Compare(op, ex::Lit(BigValue(222)), ex::Col(4)))),
                     kNarrowRows, false, true, kWidePageSize);
  }
}

TEST(BatchKernelTest, NarrowingNotOfCompare) {
  {
    std::vector<ex::ExprPtr> conjuncts;
    conjuncts.push_back(ex::Not(ex::Eq(ex::Col(1), ex::Lit(3))));
    conjuncts.push_back(ex::Not(ex::Lt(ex::Col(0), ex::Lit(40))));
    conjuncts.push_back(ex::Not(ex::Not(ex::Ge(ex::Col(2), ex::Lit(90)))));
    CheckBothKernels(ProjectWhere(ex::And(std::move(conjuncts))),
                     kNarrowRows, false, true, kWidePageSize);
  }
  CheckBothKernels(ProjectWhere(ex::Not(ex::Ge(ex::Col(2), ex::Lit(300)))),
                   kNarrowRows, false, true, kWidePageSize);
  {
    // NOT of an AND keeps lanes where some child fails: a bool slot.
    std::vector<ex::ExprPtr> conjuncts;
    conjuncts.push_back(ex::Lt(ex::Col(1), ex::Lit(5)));
    conjuncts.push_back(ex::Gt(ex::Col(0), ex::Lit(20)));
    CheckBothKernels(ProjectWhere(ex::Not(ex::And(std::move(conjuncts)))),
                     kNarrowRows, false, true, kWidePageSize);
  }
  {
    // NOT of an OR keeps lanes where every child fails: it narrows.
    std::vector<ex::ExprPtr> disjuncts;
    disjuncts.push_back(ex::Lt(ex::Col(1), ex::Lit(2)));
    disjuncts.push_back(ex::Gt(ex::Col(0), ex::Lit(300)));
    CheckBothKernels(ProjectWhere(ex::Not(ex::Or(std::move(disjuncts)))),
                     kNarrowRows, false, true, kWidePageSize);
  }
}

TEST(BatchKernelTest, NarrowingOrInsideAnd) {
  std::vector<ex::ExprPtr> disjuncts;
  disjuncts.push_back(ex::Lt(ex::Col(1), ex::Lit(3)));
  disjuncts.push_back(ex::Ge(ex::Col(4), ex::Lit(BigValue(200))));
  std::vector<ex::ExprPtr> conjuncts;
  conjuncts.push_back(ex::Gt(ex::Col(0), ex::Lit(10)));
  conjuncts.push_back(ex::Or(std::move(disjuncts)));
  conjuncts.push_back(ex::Le(ex::Col(2), ex::Lit(900)));
  CheckBothKernels(ProjectWhere(ex::And(std::move(conjuncts))), kNarrowRows,
                   false, true, kWidePageSize);
}

// v * (100 - fk): the discounted-price subtree of Q1 and Q14.
ex::ExprPtr Price() {
  return ex::Mul(ex::Col(2), ex::Sub(ex::Lit(100), ex::Col(1)));
}

TEST(BatchKernelTest, RepeatedSubtreesAtDepthZeroAndInCaseBranch) {
  // Q14's shape: the subtree inside a CASE branch runs over that
  // branch's lanes and its copies at depth 0 over every lane, all in
  // one program, and each copy is charged as the interpreter charges it.
  for (const bool grouped : {false, true}) {
    SCOPED_TRACE(grouped ? "grouped" : "ungrouped");
    QuerySpec spec;
    spec.table = "outer";
    spec.predicate = ex::Lt(ex::Col(0), ex::Lit(300));
    spec.aggregates.push_back(
        {AggSpec::Fn::kSum,
         ex::CaseWhen(ex::LikePrefix(ex::Col(3), "ab"), Price(), ex::Lit(0)),
         "promo"});
    spec.aggregates.push_back({AggSpec::Fn::kSum, Price(), "total"});
    spec.aggregates.push_back({AggSpec::Fn::kMax, Price(), "max"});
    spec.aggregates.push_back(
        {AggSpec::Fn::kSum, ex::Mul(Price(), ex::Add(ex::Lit(100), ex::Col(0))),
         "charge"});
    if (grouped) spec.group_by = {1};
    CheckBothKernels(spec, kNarrowRows, false, true, kWidePageSize);
  }
}

TEST(BatchKernelTest, CountStarBesideInputAggregates) {
  for (const bool grouped : {false, true}) {
    SCOPED_TRACE(grouped ? "grouped" : "ungrouped");
    QuerySpec spec;
    spec.table = "outer";
    std::vector<ex::ExprPtr> conjuncts;
    conjuncts.push_back(ex::Gt(ex::Col(0), ex::Lit(5)));
    conjuncts.push_back(
        ex::Compare(ex::CompareOp::kNe, ex::Col(1), ex::Lit(4)));
    spec.predicate = ex::And(std::move(conjuncts));
    spec.aggregates.push_back({AggSpec::Fn::kCount, nullptr, "cnt"});
    spec.aggregates.push_back({AggSpec::Fn::kSum, ex::Col(2), "sum_v"});
    spec.aggregates.push_back({AggSpec::Fn::kCount, ex::Col(0), "cnt_k"});
    spec.aggregates.push_back({AggSpec::Fn::kMin, ex::Col(4), "min_big"});
    spec.aggregates.push_back({AggSpec::Fn::kSum, ex::Lit(3), "sum_lit"});
    spec.aggregates.push_back({AggSpec::Fn::kCount, nullptr, "cnt2"});
    if (grouped) spec.group_by = {1};
    const RunOutput out =
        CheckBothKernels(spec, kNarrowRows, false, true, kWidePageSize);
    if (!grouped) {
      ASSERT_EQ(out.aggs.size(), 6u);
      EXPECT_EQ(out.aggs[0], out.aggs[5]);
      EXPECT_EQ(out.aggs[4], 3 * out.aggs[0]);
    }
  }
}

TEST(BatchKernelTest, ValueProgramChargesEveryRoot) {
  // Each root of one value program yields its own values and charges:
  // the program for {price, price} gives price twice and charges twice
  // what the program for {price} does.
  const Schema schema = OuterSchema();
  const MemTable outer =
      BuildOuter(PageLayout::kPax, /*rows=*/100, kWidePageSize);
  std::uint16_t rows = 0;
  const std::vector<ex::BatchColumn> columns =
      PaxColumns(schema, outer, &rows);
  const ex::BatchInput in{columns.data(), static_cast<int>(columns.size())};
  const ex::ExprPtr a = Price();
  const ex::ExprPtr b = Price();
  const ex::Expression* one[] = {a.get()};
  const ex::Expression* two[] = {a.get(), b.get()};
  auto single = ex::CompiledExpr::CompileValues(one, schema);
  auto pair = ex::CompiledExpr::CompileValues(two, schema);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(pair.ok());

  ex::SelVec sel(rows);
  std::iota(sel.begin(), sel.end(), 0u);
  ex::BatchScratch scratch;
  ex::EvalStats single_stats;
  ex::EvalStats pair_stats;
  single->Eval(in, sel, &scratch, &single_stats);
  const std::vector<std::int64_t> want(
      single->Values(0, scratch), single->Values(0, scratch) + sel.size());
  pair->Eval(in, sel, &scratch, &pair_stats);
  for (const int root : {0, 1}) {
    EXPECT_EQ(std::vector<std::int64_t>(
                  pair->Values(root, scratch),
                  pair->Values(root, scratch) + sel.size()),
              want);
  }
  ex::EvalStats twice = single_stats;
  twice += single_stats;
  EXPECT_EQ(pair_stats, twice);
}

}  // namespace
}  // namespace smartssd::exec
