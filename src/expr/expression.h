#ifndef SMARTSSD_EXPR_EXPRESSION_H_
#define SMARTSSD_EXPR_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "expr/row_view.h"
#include "expr/value.h"
#include "storage/schema.h"

namespace smartssd::expr {

class BatchProgram;

// Operation counts accumulated while evaluating expressions. The cost
// models (host Xeon vs. embedded ARM) convert these counts into cycles,
// so the *same interpreted evaluation* yields different virtual time on
// the two processors — the heart of the paper's CPU-saturation effect.
struct EvalStats {
  std::uint64_t comparisons = 0;
  std::uint64_t arithmetic = 0;
  std::uint64_t column_reads = 0;
  std::uint64_t like_evals = 0;
  std::uint64_t case_evals = 0;

  EvalStats& operator+=(const EvalStats& other) {
    comparisons += other.comparisons;
    arithmetic += other.arithmetic;
    column_reads += other.column_reads;
    like_evals += other.like_evals;
    case_evals += other.case_evals;
    return *this;
  }

  friend bool operator==(const EvalStats&, const EvalStats&) = default;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

// A "column <op> integer-literal" comparison, as recognized by the
// introspection API below. Zone-map pruning and the planner use these
// to derive per-column ranges from predicates.
struct ColumnCompare {
  int column = -1;
  CompareOp op = CompareOp::kEq;
  std::int64_t literal = 0;
};

// Interpreted expression tree. Plans are typed when built: Validate()
// must pass against the input schema before Evaluate() is called, after
// which runtime type mismatches are programmer errors (CHECK).
class Expression {
 public:
  virtual ~Expression() = default;

  virtual Value Evaluate(const RowView& row, EvalStats* stats) const = 0;
  virtual Status Validate(const storage::Schema& schema) const = 0;
  // Appends the indexes of every column the expression reads.
  virtual void CollectColumns(std::vector<int>* columns) const = 0;
  // Adds the operation counts of one *full* evaluation (no
  // short-circuiting) — the planner's worst-case per-row estimate.
  virtual void EstimateOps(EvalStats* stats) const = 0;
  virtual std::string ToString() const = 0;

  // Appends this node's ops to `prog` and returns the slot holding its
  // result (see expr/batch.h). The default is kUnimplemented: any node
  // (or operand-type combination) the batch engine does not cover makes
  // the whole compilation fail, and the caller falls back to the
  // interpreted path.
  virtual Result<int> CompileBatch(BatchProgram* prog) const;
  // Appends ops that narrow the live selection to the lanes where this
  // (BOOL) node is `keep`, charging what the interpreter charges those
  // lanes. The default computes a bool slot and narrows by it; AND, OR,
  // NOT and "column <op> int-literal" narrow without one.
  virtual Status CompileNarrow(BatchProgram* prog, bool keep) const;

  // --- Structural introspection (for pruning/planning) ---

  // If this node is exactly "column <op> int-literal" (either operand
  // order; the op is normalized to column-on-the-left), returns it.
  virtual std::optional<ColumnCompare> AsColumnCompare() const {
    return std::nullopt;
  }
  // If this node is a conjunction (AND), returns its children.
  virtual const std::vector<std::unique_ptr<Expression>>* AsConjunction()
      const {
    return nullptr;
  }
  // If this node is a bare column reference, returns its index.
  virtual std::optional<int> AsColumnRef() const { return std::nullopt; }
  // If this node is an integer literal, returns its value.
  virtual std::optional<std::int64_t> AsIntLiteral() const {
    return std::nullopt;
  }
};

using ExprPtr = std::unique_ptr<Expression>;

// --- Factory functions (the public way to build expressions) ---

ExprPtr Col(int column);
ExprPtr Lit(std::int64_t value);
ExprPtr LitStr(std::string value);
ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
// Short-circuit conjunction/disjunction, left to right.
ExprPtr And(std::vector<ExprPtr> children);
ExprPtr Or(std::vector<ExprPtr> children);
ExprPtr Not(ExprPtr child);
// SQL LIKE 'prefix%' (the only LIKE shape the paper's queries use).
ExprPtr LikePrefix(ExprPtr input, std::string prefix);
// CASE WHEN cond THEN a ELSE b END.
ExprPtr CaseWhen(ExprPtr condition, ExprPtr then_value, ExprPtr else_value);

// Convenience comparison builders.
inline ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Compare(CompareOp::kEq, std::move(l), std::move(r));
}
inline ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return Compare(CompareOp::kLt, std::move(l), std::move(r));
}
inline ExprPtr Le(ExprPtr l, ExprPtr r) {
  return Compare(CompareOp::kLe, std::move(l), std::move(r));
}
inline ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return Compare(CompareOp::kGt, std::move(l), std::move(r));
}
inline ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return Compare(CompareOp::kGe, std::move(l), std::move(r));
}
inline ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return Arith(ArithOp::kMul, std::move(l), std::move(r));
}
inline ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return Arith(ArithOp::kSub, std::move(l), std::move(r));
}
inline ExprPtr Add(ExprPtr l, ExprPtr r) {
  return Arith(ArithOp::kAdd, std::move(l), std::move(r));
}

}  // namespace smartssd::expr

#endif  // SMARTSSD_EXPR_EXPRESSION_H_
