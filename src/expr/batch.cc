#include "expr/batch.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "expr/kernel_isa.h"
#include "expr/simd_i64.h"

namespace smartssd::expr {

namespace {

// Scalar comparison kernels shared by the uniform paths. Semantics match
// the interpreter's CompareValues + op dispatch exactly.
template <typename T>
bool CmpScalar(CompareOp op, const T& x, const T& y) {
  switch (op) {
    case CompareOp::kEq:
      return x == y;
    case CompareOp::kNe:
      return x != y;
    case CompareOp::kLt:
      return x < y;
    case CompareOp::kLe:
      return x <= y;
    case CompareOp::kGt:
      return x > y;
    case CompareOp::kGe:
      return x >= y;
  }
  return false;
}

bool CmpStr(CompareOp op, std::string_view x, std::string_view y) {
  const int c = x.compare(y);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

std::int64_t ArithScalarI(ArithOp op, std::int64_t x, std::int64_t y) {
  switch (op) {
    case ArithOp::kAdd:
      return x + y;
    case ArithOp::kSub:
      return x - y;
    case ArithOp::kMul:
      return x * y;
    case ArithOp::kDiv:
      break;  // integer division never compiles: kDiv forces the double path
  }
  SMARTSSD_CHECK(false);
  return 0;
}

double ArithScalarD(ArithOp op, double x, double y) {
  switch (op) {
    case ArithOp::kAdd:
      return x + y;
    case ArithOp::kSub:
      return x - y;
    case ArithOp::kMul:
      return x * y;
    case ArithOp::kDiv:
      return y == 0 ? 0 : x / y;
  }
  return 0;
}

bool LikeScalar(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

Result<CompiledExpr> CompiledExpr::Compile(const Expression& root,
                                           const storage::Schema& schema) {
  BatchProgram prog(&schema);
  SMARTSSD_ASSIGN_OR_RETURN(const int slot, root.CompileBatch(&prog));
  const SlotType type = prog.slot(slot).type;
  return CompiledExpr(std::move(prog), slot, type);
}

void BatchScratch::Reserve(int num_slots, std::size_t lanes) {
  if (slots_.size() < static_cast<std::size_t>(num_slots)) {
    slots_.resize(static_cast<std::size_t>(num_slots));
  }
  if (lanes > lanes_) {
    lanes_ = lanes;
    for (SelVec& saved : sel_stack_) saved.reserve(lanes);
  }
  // Selection buffers trade places (with each other and with a caller's
  // SelVec in Filter), so each one that enters cur_ is sized here.
  cur_.reserve(lanes_);
}

void CompiledExpr::Run(const BatchInput& in, BatchScratch* scratch,
                       EvalStats* stats) const {
  // Every lane set below is a subset of the batch's input lanes.
  scratch->Reserve(prog_.num_slots(), scratch->cur_.size());
  // Literal slots carry their value straight from the program; doing it
  // every Run keeps the scratch shareable between compiled expressions.
  for (int s = 0; s < prog_.num_slots(); ++s) {
    const SlotInfo& info = prog_.slot(s);
    if (!info.literal) continue;
    BatchScratch::Slot& slot = scratch->slots_[static_cast<std::size_t>(s)];
    if (info.type == SlotType::kI64) {
      slot.u_i64 = info.lit_i64;
    } else {
      slot.u_str = prog_.string(info.lit_str);
    }
  }

  SelVec& cur = scratch->cur_;
  std::size_t& depth = scratch->sel_depth_;
  depth = 0;
  // One relaxed load per batch; the SIMD lanes are bit-exact drop-ins
  // for the scalar loops, so this choice never changes slot contents.
  const KernelIsa isa = CurrentKernelIsa();

  for (const BatchOp& op : prog_.ops()) {
    const std::size_t n = cur.size();
    const std::uint32_t* sel = cur.data();
    switch (op.code) {
      case BatchOp::Code::kLoadI64: {
        const BatchColumn& col = in.columns[op.col];
        std::int64_t* out = scratch->Lanes(
            scratch->slots_[static_cast<std::size_t>(op.dst)].i64);
        stats->column_reads += n;
        // Dense strided gather (all-pass pages, unfiltered loads over a
        // packed PAX minipage) is a contiguous copy. `sel` is ascending
        // and unique, so span == count implies consecutive row ids.
        if (isa == KernelIsa::kAvx2 && n > 0 && col.base != nullptr &&
            col.stride == col.width &&
            static_cast<std::size_t>(sel[n - 1] - sel[0]) + 1 == n) {
          LoadI64ContigAvx2(
              col.base + static_cast<std::size_t>(sel[0]) * col.stride,
              col.width, out, n);
          break;
        }
        auto load = [&](auto addr) {
          if (col.width == 4) {
            for (std::size_t i = 0; i < n; ++i) {
              std::int32_t v;
              std::memcpy(&v, addr(sel[i]), sizeof(v));
              out[i] = v;
            }
          } else {
            for (std::size_t i = 0; i < n; ++i) {
              std::int64_t v;
              std::memcpy(&v, addr(sel[i]), sizeof(v));
              out[i] = v;
            }
          }
        };
        if (col.base != nullptr) {
          const std::byte* base = col.base;
          const std::size_t stride = col.stride;
          load([base, stride](std::uint32_t row) {
            return base + static_cast<std::size_t>(row) * stride;
          });
        } else {
          const std::byte* const* rows = col.row_ptrs;
          const std::uint32_t offset = col.offset;
          load([rows, offset](std::uint32_t row) {
            return rows[row] + offset;
          });
        }
        break;
      }
      case BatchOp::Code::kLoadStr: {
        const BatchColumn& col = in.columns[op.col];
        std::string_view* out = scratch->Lanes(
            scratch->slots_[static_cast<std::size_t>(op.dst)].str);
        stats->column_reads += n;
        const std::size_t width = col.width;
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = std::string_view(
              reinterpret_cast<const char*>(col.at(sel[i])), width);
        }
        break;
      }
      case BatchOp::Code::kCmpI:
      case BatchOp::Code::kCmpD: {
        stats->comparisons += n;
        const bool is_d = op.code == BatchOp::Code::kCmpD;
        BatchScratch::Slot& sa =
            scratch->slots_[static_cast<std::size_t>(op.a)];
        BatchScratch::Slot& sb =
            scratch->slots_[static_cast<std::size_t>(op.b)];
        BatchScratch::Slot& sd =
            scratch->slots_[static_cast<std::size_t>(op.dst)];
        const bool ua = prog_.slot(op.a).uniform;
        const bool ub = prog_.slot(op.b).uniform;
        if (!is_d && isa == KernelIsa::kAvx2 && !(ua && ub)) {
          std::uint8_t* o = scratch->Lanes(sd.b8);
          if (ua) {
            // uniform OP v[i]  ==  v[i] FLIP(OP) uniform.
            CmpI64VecLitAvx2(FlipCompare(op.cmp), sb.i64.data(), sa.u_i64, o,
                             n);
          } else if (ub) {
            CmpI64VecLitAvx2(op.cmp, sa.i64.data(), sb.u_i64, o, n);
          } else {
            CmpI64VecVecAvx2(op.cmp, sa.i64.data(), sb.i64.data(), o, n);
          }
          break;
        }
        // Typed once at the top, so the uniform/vector combinations all
        // compare operands of the same type.
        auto run_typed = [&](const auto& va, auto uax, const auto& vb,
                             auto ubx) {
          if (ua && ub) {
            sd.u_b8 = CmpScalar(op.cmp, uax, ubx) ? 1 : 0;
            return;
          }
          std::uint8_t* o = scratch->Lanes(sd.b8);
          auto loop = [&](auto ga, auto gb) {
            switch (op.cmp) {
              case CompareOp::kEq:
                for (std::size_t i = 0; i < n; ++i) o[i] = ga(i) == gb(i);
                break;
              case CompareOp::kNe:
                for (std::size_t i = 0; i < n; ++i) o[i] = ga(i) != gb(i);
                break;
              case CompareOp::kLt:
                for (std::size_t i = 0; i < n; ++i) o[i] = ga(i) < gb(i);
                break;
              case CompareOp::kLe:
                for (std::size_t i = 0; i < n; ++i) o[i] = ga(i) <= gb(i);
                break;
              case CompareOp::kGt:
                for (std::size_t i = 0; i < n; ++i) o[i] = ga(i) > gb(i);
                break;
              case CompareOp::kGe:
                for (std::size_t i = 0; i < n; ++i) o[i] = ga(i) >= gb(i);
                break;
            }
          };
          const auto* av = va.data();
          const auto* bv = vb.data();
          if (ua) {
            loop([uax](std::size_t) { return uax; },
                 [bv](std::size_t i) { return bv[i]; });
          } else if (ub) {
            loop([av](std::size_t i) { return av[i]; },
                 [ubx](std::size_t) { return ubx; });
          } else {
            loop([av](std::size_t i) { return av[i]; },
                 [bv](std::size_t i) { return bv[i]; });
          }
        };
        if (is_d) {
          run_typed(sa.f64, sa.u_f64, sb.f64, sb.u_f64);
        } else {
          run_typed(sa.i64, sa.u_i64, sb.i64, sb.u_i64);
        }
        break;
      }
      case BatchOp::Code::kCmpS: {
        stats->comparisons += n;
        BatchScratch::Slot& sa =
            scratch->slots_[static_cast<std::size_t>(op.a)];
        BatchScratch::Slot& sb =
            scratch->slots_[static_cast<std::size_t>(op.b)];
        BatchScratch::Slot& sd =
            scratch->slots_[static_cast<std::size_t>(op.dst)];
        const bool ua = prog_.slot(op.a).uniform;
        const bool ub = prog_.slot(op.b).uniform;
        auto ga = [&](std::size_t i) { return ua ? sa.u_str : sa.str[i]; };
        auto gb = [&](std::size_t i) { return ub ? sb.u_str : sb.str[i]; };
        if (ua && ub) {
          sd.u_b8 = CmpStr(op.cmp, sa.u_str, sb.u_str) ? 1 : 0;
          break;
        }
        std::uint8_t* o = scratch->Lanes(sd.b8);
        for (std::size_t i = 0; i < n; ++i) {
          o[i] = CmpStr(op.cmp, ga(i), gb(i)) ? 1 : 0;
        }
        break;
      }
      case BatchOp::Code::kArithI: {
        stats->arithmetic += n;
        BatchScratch::Slot& sa =
            scratch->slots_[static_cast<std::size_t>(op.a)];
        BatchScratch::Slot& sb =
            scratch->slots_[static_cast<std::size_t>(op.b)];
        BatchScratch::Slot& sd =
            scratch->slots_[static_cast<std::size_t>(op.dst)];
        const bool ua = prog_.slot(op.a).uniform;
        const bool ub = prog_.slot(op.b).uniform;
        if (ua && ub) {
          sd.u_i64 = ArithScalarI(op.arith, sa.u_i64, sb.u_i64);
          break;
        }
        std::int64_t* o = scratch->Lanes(sd.i64);
        if (isa == KernelIsa::kAvx2) {
          const bool done =
              ua ? ArithI64LitVecAvx2(op.arith, sa.u_i64, sb.i64.data(), o, n)
              : ub ? ArithI64VecLitAvx2(op.arith, sa.i64.data(), sb.u_i64, o,
                                        n)
                   : ArithI64VecVecAvx2(op.arith, sa.i64.data(),
                                        sb.i64.data(), o, n);
          if (done) break;  // kMul has no 64-bit AVX2 lane; fall through.
        }
        auto run = [&](auto ga, auto gb) {
          switch (op.arith) {
            case ArithOp::kAdd:
              for (std::size_t i = 0; i < n; ++i) o[i] = ga(i) + gb(i);
              break;
            case ArithOp::kSub:
              for (std::size_t i = 0; i < n; ++i) o[i] = ga(i) - gb(i);
              break;
            case ArithOp::kMul:
              for (std::size_t i = 0; i < n; ++i) o[i] = ga(i) * gb(i);
              break;
            case ArithOp::kDiv:
              SMARTSSD_CHECK(false);
              break;
          }
        };
        if (ua) {
          const std::int64_t x = sa.u_i64;
          const std::int64_t* bv = sb.i64.data();
          run([x](std::size_t) { return x; },
              [bv](std::size_t i) { return bv[i]; });
        } else if (ub) {
          const std::int64_t* av = sa.i64.data();
          const std::int64_t y = sb.u_i64;
          run([av](std::size_t i) { return av[i]; },
              [y](std::size_t) { return y; });
        } else {
          const std::int64_t* av = sa.i64.data();
          const std::int64_t* bv = sb.i64.data();
          run([av](std::size_t i) { return av[i]; },
              [bv](std::size_t i) { return bv[i]; });
        }
        break;
      }
      case BatchOp::Code::kArithD: {
        stats->arithmetic += n;
        BatchScratch::Slot& sa =
            scratch->slots_[static_cast<std::size_t>(op.a)];
        BatchScratch::Slot& sb =
            scratch->slots_[static_cast<std::size_t>(op.b)];
        BatchScratch::Slot& sd =
            scratch->slots_[static_cast<std::size_t>(op.dst)];
        const bool ua = prog_.slot(op.a).uniform;
        const bool ub = prog_.slot(op.b).uniform;
        auto ga = [&](std::size_t i) { return ua ? sa.u_f64 : sa.f64[i]; };
        auto gb = [&](std::size_t i) { return ub ? sb.u_f64 : sb.f64[i]; };
        if (ua && ub) {
          sd.u_f64 = ArithScalarD(op.arith, sa.u_f64, sb.u_f64);
          break;
        }
        double* o = scratch->Lanes(sd.f64);
        for (std::size_t i = 0; i < n; ++i) {
          o[i] = ArithScalarD(op.arith, ga(i), gb(i));
        }
        break;
      }
      case BatchOp::Code::kCastI2D: {
        BatchScratch::Slot& sa =
            scratch->slots_[static_cast<std::size_t>(op.a)];
        BatchScratch::Slot& sd =
            scratch->slots_[static_cast<std::size_t>(op.dst)];
        if (prog_.slot(op.a).uniform) {
          sd.u_f64 = static_cast<double>(sa.u_i64);
          break;
        }
        double* o = scratch->Lanes(sd.f64);
        for (std::size_t i = 0; i < n; ++i) {
          o[i] = static_cast<double>(sa.i64[i]);
        }
        break;
      }
      case BatchOp::Code::kNot: {
        BatchScratch::Slot& sa =
            scratch->slots_[static_cast<std::size_t>(op.a)];
        BatchScratch::Slot& sd =
            scratch->slots_[static_cast<std::size_t>(op.dst)];
        if (prog_.slot(op.a).uniform) {
          sd.u_b8 = sa.u_b8 == 0 ? 1 : 0;
          break;
        }
        std::uint8_t* o = scratch->Lanes(sd.b8);
        for (std::size_t i = 0; i < n; ++i) {
          o[i] = sa.b8[i] == 0 ? 1 : 0;
        }
        break;
      }
      case BatchOp::Code::kLike: {
        stats->like_evals += n;
        const std::string_view prefix = prog_.string(op.lit);
        BatchScratch::Slot& sa =
            scratch->slots_[static_cast<std::size_t>(op.a)];
        BatchScratch::Slot& sd =
            scratch->slots_[static_cast<std::size_t>(op.dst)];
        if (prog_.slot(op.a).uniform) {
          sd.u_b8 = LikeScalar(sa.u_str, prefix) ? 1 : 0;
          break;
        }
        std::uint8_t* o = scratch->Lanes(sd.b8);
        for (std::size_t i = 0; i < n; ++i) {
          o[i] = LikeScalar(sa.str[i], prefix) ? 1 : 0;
        }
        break;
      }
      case BatchOp::Code::kCaseMark:
        stats->case_evals += n;
        break;
      case BatchOp::Code::kSelSave: {
        if (scratch->sel_stack_.size() <= depth) {
          scratch->sel_stack_.emplace_back().reserve(scratch->lanes_);
        }
        scratch->sel_stack_[depth].assign(cur.begin(), cur.end());
        ++depth;
        break;
      }
      case BatchOp::Code::kSelNarrow: {
        const BatchScratch::Slot& sa =
            scratch->slots_[static_cast<std::size_t>(op.a)];
        const bool keep = op.flag != 0;
        if (prog_.slot(op.a).uniform) {
          if ((sa.u_b8 != 0) != keep) cur.clear();
          break;
        }
        const std::uint8_t* bv = sa.b8.data();
        if (isa == KernelIsa::kAvx2) {
          cur.resize(CompactSelAvx2(cur.data(), bv, keep, n));
          break;
        }
        std::size_t w = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if ((bv[i] != 0) == keep) cur[w++] = cur[i];
        }
        cur.resize(w);
        break;
      }
      case BatchOp::Code::kSelPop: {
        SMARTSSD_CHECK(depth > 0);
        std::swap(cur, scratch->sel_stack_[depth - 1]);
        --depth;
        break;
      }
      case BatchOp::Code::kBoolFromSel: {
        SMARTSSD_CHECK(depth > 0);
        SelVec& saved = scratch->sel_stack_[depth - 1];
        BatchScratch::Slot& sd =
            scratch->slots_[static_cast<std::size_t>(op.dst)];
        const bool invert = op.flag != 0;
        std::uint8_t* o = scratch->Lanes(sd.b8);
        // `cur` is an ordered subset of `saved`: one forward walk marks
        // the survivors.
        std::size_t j = 0;
        for (std::size_t i = 0; i < saved.size(); ++i) {
          const bool member = j < cur.size() && cur[j] == saved[i];
          if (member) ++j;
          o[i] = (member != invert) ? 1 : 0;
        }
        std::swap(cur, saved);
        --depth;
        break;
      }
      case BatchOp::Code::kMerge: {
        BatchScratch::Slot& sc =
            scratch->slots_[static_cast<std::size_t>(op.a)];
        BatchScratch::Slot& st =
            scratch->slots_[static_cast<std::size_t>(op.b)];
        BatchScratch::Slot& se =
            scratch->slots_[static_cast<std::size_t>(op.c)];
        BatchScratch::Slot& sd =
            scratch->slots_[static_cast<std::size_t>(op.dst)];
        const bool uc = prog_.slot(op.a).uniform;
        const bool ut = prog_.slot(op.b).uniform;
        const bool ue = prog_.slot(op.c).uniform;
        auto cond = [&](std::size_t i) {
          return (uc ? sc.u_b8 : sc.b8[i]) != 0;
        };
        if (prog_.slot(op.dst).uniform) {
          // All three operands uniform: one scalar pick.
          switch (prog_.slot(op.dst).type) {
            case SlotType::kI64:
              sd.u_i64 = cond(0) ? st.u_i64 : se.u_i64;
              break;
            case SlotType::kF64:
              sd.u_f64 = cond(0) ? st.u_f64 : se.u_f64;
              break;
            case SlotType::kStr:
              sd.u_str = cond(0) ? st.u_str : se.u_str;
              break;
            case SlotType::kBool:
              sd.u_b8 = cond(0) ? st.u_b8 : se.u_b8;
              break;
          }
          break;
        }
        // Branch outputs are dense streams over the lanes that took the
        // branch; zipping by the condition restores lane order.
        std::size_t jt = 0;
        std::size_t je = 0;
        switch (prog_.slot(op.dst).type) {
          case SlotType::kI64: {
            auto* o = scratch->Lanes(sd.i64);
            for (std::size_t i = 0; i < n; ++i) {
              o[i] = cond(i) ? (ut ? st.u_i64 : st.i64[jt++])
                             : (ue ? se.u_i64 : se.i64[je++]);
            }
            break;
          }
          case SlotType::kF64: {
            auto* o = scratch->Lanes(sd.f64);
            for (std::size_t i = 0; i < n; ++i) {
              o[i] = cond(i) ? (ut ? st.u_f64 : st.f64[jt++])
                             : (ue ? se.u_f64 : se.f64[je++]);
            }
            break;
          }
          case SlotType::kStr: {
            auto* o = scratch->Lanes(sd.str);
            for (std::size_t i = 0; i < n; ++i) {
              o[i] = cond(i) ? (ut ? st.u_str : st.str[jt++])
                             : (ue ? se.u_str : se.str[je++]);
            }
            break;
          }
          case SlotType::kBool: {
            std::uint8_t* o = scratch->Lanes(sd.b8);
            for (std::size_t i = 0; i < n; ++i) {
              o[i] = cond(i) ? (ut ? st.u_b8 : st.b8[jt++])
                             : (ue ? se.u_b8 : se.b8[je++]);
            }
            break;
          }
        }
        break;
      }
    }
  }
  SMARTSSD_CHECK_EQ(depth, 0u);
}

void CompiledExpr::Filter(const BatchInput& in, SelVec* sel,
                          BatchScratch* scratch, EvalStats* stats) const {
  SMARTSSD_CHECK(result_type_ == SlotType::kBool);
  if (sel->empty()) {
    // Nothing to evaluate: the interpreter would not have charged a
    // thing either, so skip the op walk entirely.
    return;
  }
  // Size the buffer the caller gets back before it changes hands.
  scratch->Reserve(prog_.num_slots(), sel->size());
  std::swap(scratch->cur_, *sel);
  Run(in, scratch, stats);
  std::swap(scratch->cur_, *sel);
  const BatchScratch::Slot& root =
      scratch->slots_[static_cast<std::size_t>(root_)];
  if (prog_.slot(root_).uniform) {
    if (root.u_b8 == 0) sel->clear();
    return;
  }
  const std::uint8_t* bv = root.b8.data();
  if (CurrentKernelIsa() == KernelIsa::kAvx2) {
    sel->resize(CompactSelAvx2(sel->data(), bv, /*keep=*/true, sel->size()));
    return;
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < sel->size(); ++i) {
    if (bv[i] != 0) (*sel)[w++] = (*sel)[i];
  }
  sel->resize(w);
}

std::span<const std::int64_t> CompiledExpr::EvalI64(
    const BatchInput& in, const SelVec& sel, BatchScratch* scratch,
    EvalStats* stats) const {
  SMARTSSD_CHECK(result_type_ == SlotType::kI64);
  if (sel.empty()) return {};
  scratch->Reserve(prog_.num_slots(), sel.size());
  scratch->cur_.assign(sel.begin(), sel.end());
  Run(in, scratch, stats);
  const BatchScratch::Slot& root =
      scratch->slots_[static_cast<std::size_t>(root_)];
  if (prog_.slot(root_).uniform) {
    std::int64_t* lanes = scratch->Lanes(scratch->broadcast_);
    std::fill(lanes, lanes + sel.size(), root.u_i64);
    return {lanes, sel.size()};
  }
  return {root.i64.data(), sel.size()};
}

}  // namespace smartssd::expr
