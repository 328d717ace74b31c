#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "expr/expression.h"
#include "expr/row_view.h"
#include "storage/page_codec.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace smartssd::expr {
namespace {

using storage::Column;
using storage::Schema;

Schema TestSchema() {
  auto schema = Schema::Create({
      Column::Int32("a"),
      Column::Int64("b"),
      Column::FixedChar("s", 10),
  });
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

std::vector<std::byte> MakeTuple(const Schema& schema, std::int32_t a,
                                 std::int64_t b, std::string_view s) {
  std::vector<std::byte> tuple(schema.tuple_size());
  storage::TupleWriter writer(&schema, tuple);
  writer.SetInt32(0, a);
  writer.SetInt64(1, b);
  writer.SetChar(2, s);
  return tuple;
}

class ExprTest : public ::testing::Test {
 protected:
  ExprTest()
      : schema_(TestSchema()),
        tuple_(MakeTuple(schema_, 5, 100, "PROMO BRASS")),
        view_(&schema_, tuple_.data()) {}

  Value Eval(const ExprPtr& e) { return e->Evaluate(view_, &stats_); }

  Schema schema_;
  std::vector<std::byte> tuple_;
  NsmRowView view_;
  EvalStats stats_;
};

TEST_F(ExprTest, ColumnAndLiteral) {
  EXPECT_EQ(Eval(Col(0)).AsInt(), 5);
  EXPECT_EQ(Eval(Col(1)).AsInt(), 100);
  EXPECT_EQ(Eval(Col(2)).AsString(), "PROMO BRAS");  // CHAR(10)
  EXPECT_EQ(Eval(Lit(7)).AsInt(), 7);
  EXPECT_EQ(Eval(LitStr("x")).AsString(), "x");
  EXPECT_EQ(stats_.column_reads, 3u);
}

TEST_F(ExprTest, ComparisonsAllOps) {
  EXPECT_TRUE(Eval(Eq(Col(0), Lit(5))).AsBool());
  EXPECT_FALSE(Eval(Eq(Col(0), Lit(6))).AsBool());
  EXPECT_TRUE(Eval(Lt(Col(0), Lit(6))).AsBool());
  EXPECT_FALSE(Eval(Lt(Col(0), Lit(5))).AsBool());
  EXPECT_TRUE(Eval(Le(Col(0), Lit(5))).AsBool());
  EXPECT_TRUE(Eval(Gt(Col(0), Lit(4))).AsBool());
  EXPECT_TRUE(Eval(Ge(Col(0), Lit(5))).AsBool());
  EXPECT_TRUE(
      Eval(Compare(CompareOp::kNe, Col(0), Lit(4))).AsBool());
  EXPECT_EQ(stats_.comparisons, 8u);
}

TEST_F(ExprTest, StringComparison) {
  EXPECT_TRUE(
      Eval(Eq(Col(2), LitStr("PROMO BRAS"))).AsBool());
  EXPECT_TRUE(Eval(Gt(Col(2), LitStr("A"))).AsBool());
}

TEST_F(ExprTest, Arithmetic) {
  EXPECT_EQ(Eval(Add(Col(0), Lit(3))).AsInt(), 8);
  EXPECT_EQ(Eval(Sub(Lit(3), Col(0))).AsInt(), -2);
  EXPECT_EQ(Eval(Mul(Col(0), Col(1))).AsInt(), 500);
  EXPECT_EQ(Eval(Arith(ArithOp::kDiv, Col(1), Col(0))).AsDouble(), 20.0);
  EXPECT_EQ(stats_.arithmetic, 4u);
}

TEST_F(ExprTest, DivisionByZeroYieldsZero) {
  EXPECT_EQ(Eval(Arith(ArithOp::kDiv, Col(0), Lit(0))).AsDouble(), 0.0);
}

TEST_F(ExprTest, AndShortCircuits) {
  std::vector<ExprPtr> children;
  children.push_back(Lt(Col(0), Lit(0)));  // false: a=5
  children.push_back(Lt(Col(1), Lit(999)));
  const ExprPtr e = And(std::move(children));
  EXPECT_FALSE(Eval(e).AsBool());
  // Only the first comparison executed.
  EXPECT_EQ(stats_.comparisons, 1u);
  EXPECT_EQ(stats_.column_reads, 1u);
}

TEST_F(ExprTest, AndAllPass) {
  std::vector<ExprPtr> children;
  children.push_back(Gt(Col(0), Lit(0)));
  children.push_back(Lt(Col(1), Lit(999)));
  EXPECT_TRUE(Eval(And(std::move(children))).AsBool());
  EXPECT_EQ(stats_.comparisons, 2u);
}

TEST_F(ExprTest, OrShortCircuits) {
  std::vector<ExprPtr> children;
  children.push_back(Gt(Col(0), Lit(0)));  // true
  children.push_back(Lt(Col(1), Lit(999)));
  EXPECT_TRUE(Eval(Or(std::move(children))).AsBool());
  EXPECT_EQ(stats_.comparisons, 1u);
}

TEST_F(ExprTest, NotNegates) {
  EXPECT_FALSE(Eval(Not(Gt(Col(0), Lit(0)))).AsBool());
  EXPECT_TRUE(Eval(Not(Gt(Col(0), Lit(99)))).AsBool());
}

TEST_F(ExprTest, LikePrefix) {
  EXPECT_TRUE(Eval(LikePrefix(Col(2), "PROMO")).AsBool());
  EXPECT_FALSE(Eval(LikePrefix(Col(2), "STANDARD")).AsBool());
  EXPECT_EQ(stats_.like_evals, 2u);
}

TEST_F(ExprTest, CaseWhen) {
  const ExprPtr promo = CaseWhen(LikePrefix(Col(2), "PROMO"),
                                 Mul(Col(0), Lit(2)), Lit(0));
  EXPECT_EQ(Eval(promo).AsInt(), 10);
  const ExprPtr nope = CaseWhen(LikePrefix(Col(2), "XX"),
                                Mul(Col(0), Lit(2)), Lit(0));
  EXPECT_EQ(Eval(nope).AsInt(), 0);
  EXPECT_EQ(stats_.case_evals, 2u);
  // Only the taken branch is evaluated: one multiply total.
  EXPECT_EQ(stats_.arithmetic, 1u);
}

TEST_F(ExprTest, ValidateCatchesBadColumns) {
  EXPECT_TRUE(Col(2)->Validate(schema_).ok());
  EXPECT_FALSE(Col(3)->Validate(schema_).ok());
  EXPECT_FALSE(Col(-1)->Validate(schema_).ok());
  EXPECT_FALSE(Lt(Col(7), Lit(0))->Validate(schema_).ok());
  EXPECT_FALSE(And({})->Validate(schema_).ok());
  EXPECT_FALSE(LikePrefix(Col(2), "")->Validate(schema_).ok());
}

TEST_F(ExprTest, CollectColumns) {
  std::vector<ExprPtr> children;
  children.push_back(Lt(Col(0), Lit(1)));
  children.push_back(Eq(Col(2), LitStr("x")));
  const ExprPtr e =
      CaseWhen(And(std::move(children)), Col(1), Lit(0));
  std::vector<int> columns;
  e->CollectColumns(&columns);
  EXPECT_EQ(columns, (std::vector<int>{0, 2, 1}));
}

TEST_F(ExprTest, EstimateOpsCountsWorstCase) {
  std::vector<ExprPtr> children;
  children.push_back(Lt(Col(0), Lit(1)));
  children.push_back(Gt(Col(1), Lit(2)));
  children.push_back(Eq(Col(0), Lit(3)));
  const ExprPtr e = And(std::move(children));
  EvalStats estimate;
  e->EstimateOps(&estimate);
  EXPECT_EQ(estimate.comparisons, 3u);
  EXPECT_EQ(estimate.column_reads, 3u);
}

TEST_F(ExprTest, ToStringRendersSql) {
  EXPECT_EQ(Lt(Col(0), Lit(5))->ToString(), "($0 < 5)");
  EXPECT_EQ(LikePrefix(Col(2), "PROMO")->ToString(),
            "($2 LIKE 'PROMO%')");
  std::vector<ExprPtr> children;
  children.push_back(Gt(Col(0), Lit(1)));
  children.push_back(Lt(Col(0), Lit(9)));
  EXPECT_EQ(And(std::move(children))->ToString(),
            "(($0 > 1) AND ($0 < 9))");
}

// Every view of the same logical row agrees on every column: a
// materialized NSM record, and a page row in each layout — and so does
// the combined outer-plus-payload view over each of them.
TEST(RowViewTest, PaxAndNsmViewsAgree) {
  const Schema schema = TestSchema();
  const auto tuple = MakeTuple(schema, -7, 1LL << 40, "hello");
  const NsmRowView record(&schema, tuple.data());

  auto combined_schema = Schema::Create({
      Column::Int32("a"), Column::Int64("b"), Column::FixedChar("s", 10),
      Column::Int64("part.key"), Column::FixedChar("part.type", 3)});
  ASSERT_TRUE(combined_schema.ok());
  std::vector<std::byte> payload(11);
  const std::int64_t key = 42;
  std::memcpy(payload.data(), &key, sizeof(key));
  std::memcpy(payload.data() + 8, "PRO", 3);

  for (const auto layout :
       {storage::PageLayout::kNsm, storage::PageLayout::kPax}) {
    storage::PageBuilder builder(&schema, layout, 1024);
    ASSERT_TRUE(builder.Append(tuple));
    auto rows = storage::PageRows::Open(&schema, layout, builder.image());
    ASSERT_TRUE(rows.ok());
    PageRowView page_row(&*rows);
    page_row.Reset(0);
    EXPECT_EQ(page_row.GetColumn(0).AsInt(), record.GetColumn(0).AsInt());
    EXPECT_EQ(page_row.GetColumn(1).AsInt(), record.GetColumn(1).AsInt());
    EXPECT_EQ(page_row.GetColumn(2).AsString(),
              record.GetColumn(2).AsString());
    for (int c = 0; c < schema.num_columns(); ++c) {
      EXPECT_EQ(std::memcmp(page_row.ColumnBytes(c), record.ColumnBytes(c),
                            schema.column(c).width),
                0)
          << storage::PageLayoutName(layout) << " column " << c;
    }
    std::vector<std::byte> copy(schema.tuple_size());
    page_row.CopyRecord(copy.data());
    EXPECT_EQ(copy, tuple);

    CombinedRowView combined(&*combined_schema, &page_row);
    combined.SetPayload(payload.data());
    EXPECT_EQ(combined.ColumnBytes(1), page_row.ColumnBytes(1));
    EXPECT_EQ(combined.GetColumn(2).AsString(), "hello     ");
    EXPECT_EQ(combined.ColumnBytes(3), payload.data());
    EXPECT_EQ(combined.GetColumn(3).AsInt(), 42);
    EXPECT_EQ(combined.ColumnBytes(4), payload.data() + 8);
    EXPECT_EQ(combined.GetColumn(4).AsString(), "PRO");
  }
}

TEST(ValueTest, TypeChecksAndConversions) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(3).AsDouble(), 3.0);  // int widens to double
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("ab").AsString(), "ab");
}

}  // namespace
}  // namespace smartssd::expr
