// Property testing for the expression interpreter: random expression
// trees evaluated by the interpreter must agree with an independent
// direct evaluator, on random rows, in both layouts.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "expr/expression.h"
#include "expr/row_view.h"
#include "storage/page_codec.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace smartssd::expr {
namespace {

constexpr int kColumns = 6;

// A parallel "reference AST" evaluated with plain C++ — structurally
// mirrors the ExprPtr tree but shares no code with the interpreter.
struct RefNode {
  enum class Kind { kCol, kLit, kCmp, kArith, kAnd, kOr, kNot } kind;
  int column = 0;
  std::int64_t literal = 0;
  CompareOp cmp_op = CompareOp::kEq;
  ArithOp arith_op = ArithOp::kAdd;
  std::vector<std::unique_ptr<RefNode>> children;
};

struct Pair {
  ExprPtr expr;
  std::unique_ptr<RefNode> ref;
};

Pair RandomInt(Random& rng, int depth);

Pair RandomBool(Random& rng, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.4)) {
    // Leaf comparison.
    Pair lhs = RandomInt(rng, depth - 1);
    Pair rhs = RandomInt(rng, depth - 1);
    const auto op = static_cast<CompareOp>(rng.Uniform(6));
    auto ref = std::make_unique<RefNode>();
    ref->kind = RefNode::Kind::kCmp;
    ref->cmp_op = op;
    ref->children.push_back(std::move(lhs.ref));
    ref->children.push_back(std::move(rhs.ref));
    return {Compare(op, std::move(lhs.expr), std::move(rhs.expr)),
            std::move(ref)};
  }
  switch (rng.Uniform(3)) {
    case 0: {  // NOT
      Pair child = RandomBool(rng, depth - 1);
      auto ref = std::make_unique<RefNode>();
      ref->kind = RefNode::Kind::kNot;
      ref->children.push_back(std::move(child.ref));
      return {Not(std::move(child.expr)), std::move(ref)};
    }
    default: {  // AND / OR
      const bool is_and = rng.Bernoulli(0.5);
      const int n = static_cast<int>(rng.Uniform(3)) + 2;
      std::vector<ExprPtr> exprs;
      auto ref = std::make_unique<RefNode>();
      ref->kind = is_and ? RefNode::Kind::kAnd : RefNode::Kind::kOr;
      for (int i = 0; i < n; ++i) {
        Pair child = RandomBool(rng, depth - 1);
        exprs.push_back(std::move(child.expr));
        ref->children.push_back(std::move(child.ref));
      }
      return {is_and ? And(std::move(exprs)) : Or(std::move(exprs)),
              std::move(ref)};
    }
  }
}

Pair RandomInt(Random& rng, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.5)) {
    if (rng.Bernoulli(0.5)) {
      const int col = static_cast<int>(rng.Uniform(kColumns));
      auto ref = std::make_unique<RefNode>();
      ref->kind = RefNode::Kind::kCol;
      ref->column = col;
      return {Col(col), std::move(ref)};
    }
    const std::int64_t v = rng.UniformInt(-1000, 1000);
    auto ref = std::make_unique<RefNode>();
    ref->kind = RefNode::Kind::kLit;
    ref->literal = v;
    return {Lit(v), std::move(ref)};
  }
  // Arithmetic (no division: its double semantics are tested separately
  // and would complicate the int reference).
  const auto op = static_cast<ArithOp>(rng.Uniform(3));
  Pair lhs = RandomInt(rng, depth - 1);
  Pair rhs = RandomInt(rng, depth - 1);
  auto ref = std::make_unique<RefNode>();
  ref->kind = RefNode::Kind::kArith;
  ref->arith_op = op;
  ref->children.push_back(std::move(lhs.ref));
  ref->children.push_back(std::move(rhs.ref));
  return {Arith(op, std::move(lhs.expr), std::move(rhs.expr)),
          std::move(ref)};
}

std::int64_t RefEvalInt(const RefNode& node,
                        const std::vector<std::int32_t>& row);

bool RefEvalBool(const RefNode& node,
                 const std::vector<std::int32_t>& row) {
  switch (node.kind) {
    case RefNode::Kind::kCmp: {
      const std::int64_t a = RefEvalInt(*node.children[0], row);
      const std::int64_t b = RefEvalInt(*node.children[1], row);
      switch (node.cmp_op) {
        case CompareOp::kEq:
          return a == b;
        case CompareOp::kNe:
          return a != b;
        case CompareOp::kLt:
          return a < b;
        case CompareOp::kLe:
          return a <= b;
        case CompareOp::kGt:
          return a > b;
        case CompareOp::kGe:
          return a >= b;
      }
      return false;
    }
    case RefNode::Kind::kAnd: {
      for (const auto& child : node.children) {
        if (!RefEvalBool(*child, row)) return false;
      }
      return true;
    }
    case RefNode::Kind::kOr: {
      for (const auto& child : node.children) {
        if (RefEvalBool(*child, row)) return true;
      }
      return false;
    }
    case RefNode::Kind::kNot:
      return !RefEvalBool(*node.children[0], row);
    default:
      SMARTSSD_CHECK(false);
      return false;
  }
}

std::int64_t RefEvalInt(const RefNode& node,
                        const std::vector<std::int32_t>& row) {
  switch (node.kind) {
    case RefNode::Kind::kCol:
      return row[static_cast<std::size_t>(node.column)];
    case RefNode::Kind::kLit:
      return node.literal;
    case RefNode::Kind::kArith: {
      const std::int64_t a = RefEvalInt(*node.children[0], row);
      const std::int64_t b = RefEvalInt(*node.children[1], row);
      switch (node.arith_op) {
        case ArithOp::kAdd:
          return a + b;
        case ArithOp::kSub:
          return a - b;
        case ArithOp::kMul:
          return a * b;
        case ArithOp::kDiv:
          return b == 0 ? 0 : a / b;
      }
      return 0;
    }
    default:
      SMARTSSD_CHECK(false);
      return 0;
  }
}

class ExprPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExprPropertyTest, InterpreterMatchesReferenceEvaluator) {
  Random rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  std::vector<storage::Column> columns;
  for (int c = 0; c < kColumns; ++c) {
    columns.push_back(storage::Column::Int32("c" + std::to_string(c)));
  }
  auto schema_or = storage::Schema::Create(std::move(columns));
  ASSERT_TRUE(schema_or.ok());
  const storage::Schema& schema = *schema_or;

  for (int trial = 0; trial < 40; ++trial) {
    const Pair pair = RandomBool(rng, 3);
    ASSERT_TRUE(pair.expr->Validate(schema).ok());

    for (int r = 0; r < 10; ++r) {
      std::vector<std::int32_t> row(kColumns);
      std::vector<std::byte> tuple(schema.tuple_size());
      storage::TupleWriter writer(&schema, tuple);
      for (int c = 0; c < kColumns; ++c) {
        row[static_cast<std::size_t>(c)] =
            static_cast<std::int32_t>(rng.UniformInt(-500, 500));
        writer.SetInt32(c, row[static_cast<std::size_t>(c)]);
      }
      const bool expected = RefEvalBool(*pair.ref, row);

      // NSM view.
      EvalStats stats;
      const NsmRowView nsm(&schema, tuple.data());
      EXPECT_EQ(pair.expr->Evaluate(nsm, &stats).AsBool(), expected)
          << "seed " << GetParam() << " trial " << trial << ": "
          << pair.expr->ToString();

      // PAX page row of the same row.
      storage::PageBuilder builder(&schema, storage::PageLayout::kPax, 512);
      ASSERT_TRUE(builder.Append(tuple));
      auto rows = storage::PageRows::Open(&schema, storage::PageLayout::kPax,
                                          builder.image());
      ASSERT_TRUE(rows.ok());
      PageRowView pax(&*rows);
      pax.Reset(0);
      EXPECT_EQ(pair.expr->Evaluate(pax, &stats).AsBool(), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace smartssd::expr
