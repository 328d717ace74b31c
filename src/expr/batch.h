#ifndef SMARTSSD_EXPR_BATCH_H_
#define SMARTSSD_EXPR_BATCH_H_

// Vectorized (batch) expression evaluation.
//
// An Expression tree is compiled once — per query, not per row — into a
// flat sequence of BatchOps. Each op runs column-at-a-time over the rows
// named by a selection vector, so the per-row virtual dispatch and Value
// boxing of the interpreted Evaluate() path disappear from the hot loop.
//
// Count-identity contract: a compiled program charges *exactly* the
// EvalStats the interpreter would charge for the same rows, including
// the short-circuit behaviour of AND/OR and the branch-taken behaviour
// of CASE. Short-circuiting maps onto selection narrowing: a child of an
// AND only runs over the lanes every earlier child passed, which is
// row-for-row the set of rows the interpreter would have evaluated it
// on. This is what keeps the cost models — and therefore every
// virtual-time number — byte-identical across the two kernels.
//
// Not every tree compiles (e.g. mixed int/double CASE branches, string
// arithmetic). Compile() then fails with kUnimplemented and the caller
// falls back to the interpreted kernel, which remains the semantic
// reference.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "expr/expression.h"
#include "storage/schema.h"

namespace smartssd::expr {

// Physical access to one column of the current batch. Two shapes:
//  * strided — value i at `base + row * stride` (PAX minipages, where
//    the decode is nearly free),
//  * indirect — value at `row_ptrs[row] + offset` (NSM tuples gathered
//    once per page, and join-payload blobs resolved at probe time).
struct BatchColumn {
  storage::ColumnType type = storage::ColumnType::kInt32;
  std::uint32_t width = 0;
  const std::byte* base = nullptr;
  std::size_t stride = 0;
  const std::byte* const* row_ptrs = nullptr;
  std::uint32_t offset = 0;

  const std::byte* at(std::uint32_t row) const {
    return base != nullptr
               ? base + static_cast<std::size_t>(row) * stride
               : row_ptrs[row] + offset;
  }
};

// The columns visible to one batch evaluation, indexed by the same
// column ids the expression tree uses.
struct BatchInput {
  const BatchColumn* columns = nullptr;
  int num_columns = 0;
};

// Ascending row ids of the lanes still alive.
using SelVec = std::vector<std::uint32_t>;

// Static type of a value slot, fixed at compile time. The interpreter's
// per-row dynamic typing collapses to this because column types, literal
// types, and the promotion rules (any double operand or a division
// forces the double path) are all known from the tree.
enum class SlotType : std::uint8_t { kI64, kF64, kStr, kBool };

// One instruction of the flat kernel sequence.
struct BatchOp {
  enum class Code : std::uint8_t {
    kLoadI64,      // col -> dst          (counts one column_read per lane)
    kLoadStr,      // col -> dst          (counts one column_read per lane)
    kCmpI,         // a cmp b -> dst      (counts one comparison per lane)
    kCmpD,
    kCmpS,
    kArithI,       // a op b -> dst       (counts one arithmetic per lane)
    kArithD,
    kCastI2D,      // a -> dst            (free, like Value::AsDouble)
    kNot,          // !a -> dst
    kLike,         // a starts-with strings[lit] -> dst (one like_eval/lane)
    kCaseMark,     // counts one case_eval per lane
    kSelSave,      // push a copy of the current selection
    kSelNarrow,    // keep lanes where bool slot a == flag
    kSelPop,       // restore the saved selection
    kBoolFromSel,  // dst (over saved sel) = lane survived, XOR flag; pops
    kMerge,        // dst = a(cond) ? b-stream : c-stream, zipped in order
  };
  Code code = Code::kLoadI64;
  std::uint8_t flag = 0;
  CompareOp cmp = CompareOp::kEq;
  ArithOp arith = ArithOp::kAdd;
  int col = -1;
  int a = -1;
  int b = -1;
  int c = -1;
  int dst = -1;
  int lit = -1;  // string-pool index (kLike prefix)
};

struct SlotInfo {
  SlotType type = SlotType::kI64;
  bool uniform = false;    // one value per batch instead of one per lane
  bool literal = false;    // uniform whose value is a compile-time constant
  std::int64_t lit_i64 = 0;
  int lit_str = -1;  // string-pool index
};

// Builder/container for a compiled kernel. Expression nodes append their
// ops via Expression::CompileBatch and return the slot holding their
// result.
class BatchProgram {
 public:
  explicit BatchProgram(const storage::Schema* schema) : schema_(schema) {}

  const storage::Schema& schema() const { return *schema_; }

  int AddSlot(SlotType type, bool uniform = false) {
    slots_.push_back(SlotInfo{.type = type, .uniform = uniform});
    return static_cast<int>(slots_.size()) - 1;
  }
  int AddLiteralI64(std::int64_t value) {
    slots_.push_back(SlotInfo{.type = SlotType::kI64,
                              .uniform = true,
                              .literal = true,
                              .lit_i64 = value});
    return static_cast<int>(slots_.size()) - 1;
  }
  int AddLiteralStr(std::string value) {
    const int pool = AddString(std::move(value));
    slots_.push_back(SlotInfo{.type = SlotType::kStr,
                              .uniform = true,
                              .literal = true,
                              .lit_str = pool});
    return static_cast<int>(slots_.size()) - 1;
  }
  int AddString(std::string value) {
    strings_.push_back(std::move(value));
    return static_cast<int>(strings_.size()) - 1;
  }
  void Emit(const BatchOp& op) { ops_.push_back(op); }

  const SlotInfo& slot(int i) const {
    return slots_[static_cast<std::size_t>(i)];
  }
  int num_slots() const { return static_cast<int>(slots_.size()); }
  const std::vector<BatchOp>& ops() const { return ops_; }
  std::string_view string(int i) const {
    return strings_[static_cast<std::size_t>(i)];
  }

 private:
  const storage::Schema* schema_;
  std::vector<BatchOp> ops_;
  std::vector<SlotInfo> slots_;
  std::vector<std::string> strings_;
};

// Reusable evaluation state (slot storage, selection stack). Owned by
// the caller and shared across pages — and across the several compiled
// expressions of one query — so the steady state allocates nothing.
//
// The scratch is sized once: it grows to the most slots any program it
// served has used and to the most lanes any batch it served has had,
// and never shrinks. Every slot buffer it hands out holds that many
// lanes, and every selection buffer has that much capacity, so a batch
// no larger than an earlier one touches no allocator. Slot contents
// left over from an earlier program or page are never observed: an op
// writes its destination lanes before any later op reads them.
class BatchScratch {
 public:
  BatchScratch() = default;

 private:
  friend class CompiledExpr;

  struct Slot {
    std::vector<std::int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string_view> str;
    std::vector<std::uint8_t> b8;
    std::int64_t u_i64 = 0;
    double u_f64 = 0;
    std::string_view u_str;
    std::uint8_t u_b8 = 0;
  };

  // Grows to `num_slots` slots and `lanes` lanes (never shrinks).
  void Reserve(int num_slots, std::size_t lanes);
  // `buf` holding lanes_ values (grown on first use, then left alone).
  template <typename T>
  T* Lanes(std::vector<T>& buf) {
    if (buf.size() < lanes_) buf.resize(lanes_);
    return buf.data();
  }

  std::vector<Slot> slots_;
  std::vector<SelVec> sel_stack_;
  std::size_t sel_depth_ = 0;
  std::size_t lanes_ = 0;
  SelVec cur_;
  std::vector<std::int64_t> broadcast_;
};

// A compiled expression: the flat op sequence plus its result slot.
class CompiledExpr {
 public:
  // Compiles `root` against `schema` (the combined-row schema the tree's
  // column ids index into). Fails — kUnimplemented / kInvalidArgument —
  // on shapes the batch engine does not cover; callers fall back to the
  // interpreter.
  static Result<CompiledExpr> Compile(const Expression& root,
                                      const storage::Schema& schema);

  SlotType result_type() const { return result_type_; }
  int num_slots() const { return prog_.num_slots(); }

  // Predicate evaluation: removes the lanes of `sel` where the (BOOL)
  // expression is false. Charges exactly the interpreter's EvalStats.
  void Filter(const BatchInput& in, SelVec* sel, BatchScratch* scratch,
              EvalStats* stats) const;

  // Evaluates an INT64-typed expression for every lane of `sel`. The
  // returned span (one value per lane, in lane order) lives in `scratch`
  // and is valid until the next evaluation using the same scratch.
  std::span<const std::int64_t> EvalI64(const BatchInput& in,
                                        const SelVec& sel,
                                        BatchScratch* scratch,
                                        EvalStats* stats) const;

 private:
  CompiledExpr(BatchProgram prog, int root, SlotType type)
      : prog_(std::move(prog)), root_(root), result_type_(type) {}

  // Executes the op sequence over scratch->cur_.
  void Run(const BatchInput& in, BatchScratch* scratch,
           EvalStats* stats) const;

  BatchProgram prog_;
  int root_ = -1;
  SlotType result_type_ = SlotType::kBool;
};

}  // namespace smartssd::expr

#endif  // SMARTSSD_EXPR_BATCH_H_
