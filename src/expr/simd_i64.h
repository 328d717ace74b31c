#ifndef SMARTSSD_EXPR_SIMD_I64_H_
#define SMARTSSD_EXPR_SIMD_I64_H_

// AVX2+BMI2 int64 lanes for the batch kernel's hot loops: compare to a
// broadcast literal, compare two vectors, add/sub, contiguous column
// load, in-place selection-vector compaction, and the narrowing compare
// that reads a packed column at the live lanes and keeps the survivors.
//
// Bit-exact contract: every routine produces byte-identical output to
// the corresponding scalar loop in batch.cc — signed 64-bit compares,
// sign-extending int32 widening, two's-complement wrapping add/sub, and
// left-packing compaction that preserves lane order. Boolean outputs
// are 0/1 bytes (never 0xFF), matching the scalar kernel; CompactSelAvx2
// depends on that invariant when it extracts one bit per byte with PEXT.
//
// The *Avx2 entry points are compiled with target("avx2","bmi2") and
// must only be called when expr::CurrentKernelIsa() == kAvx2. On
// non-x86 builds they fall back to the scalar loops so the translation
// unit still links (they are then unreachable: detection never selects
// kAvx2 there).

#include <cstddef>
#include <cstdint>

#include "expr/expression.h"

namespace smartssd::expr {

// out[i] = (a[i] cmp lit) ? 1 : 0.
void CmpI64VecLitAvx2(CompareOp op, const std::int64_t* a, std::int64_t lit,
                      std::uint8_t* out, std::size_t n);

// out[i] = (a[i] cmp b[i]) ? 1 : 0.
void CmpI64VecVecAvx2(CompareOp op, const std::int64_t* a,
                      const std::int64_t* b, std::uint8_t* out,
                      std::size_t n);

// Compacts `sel` in place, keeping lanes where (b8[i] != 0) == keep;
// returns the new length. Lane order is preserved.
std::size_t CompactSelAvx2(std::uint32_t* sel, const std::uint8_t* b8,
                           bool keep, std::size_t n);

// Narrowing compare over a packed column: row r's value lies at
// base + r * width (width 4 or 8; int32 sign-extends). Keeps the lanes
// of sel[0..n) whose value v satisfies `v op lit`, left-packed in place
// in lane order, and returns how many remain. With `dense`, sel holds
// the consecutive rows sel[0], sel[0] + 1, ..., and the values are
// loaded contiguously; otherwise they are gathered. For width 4, `lit`
// must lie in the int32 range.
std::size_t NarrowCmpAvx2(CompareOp op, const std::byte* base,
                          std::uint32_t width, std::int64_t lit, bool dense,
                          std::uint32_t* sel, std::size_t n);

// Loads n contiguous column values of `width` (4 or 8) bytes starting
// at `src`, sign-extending int32 to int64 for width 4.
void LoadI64ContigAvx2(const std::byte* src, std::uint32_t width,
                       std::int64_t* out, std::size_t n);

// Vector arithmetic; return false when `op` has no SIMD lane (mul has
// no 64-bit AVX2 multiply; div never compiles) so the caller falls back
// to the scalar loop.
bool ArithI64VecVecAvx2(ArithOp op, const std::int64_t* a,
                        const std::int64_t* b, std::int64_t* out,
                        std::size_t n);
bool ArithI64VecLitAvx2(ArithOp op, const std::int64_t* a, std::int64_t lit,
                        std::int64_t* out, std::size_t n);
bool ArithI64LitVecAvx2(ArithOp op, std::int64_t lit, const std::int64_t* b,
                        std::int64_t* out, std::size_t n);

// Rewrites `lit OP v` as `v OP' lit`: kLt<->kGt, kLe<->kGe, kEq/kNe
// unchanged. Same normalization Expression::AsColumnCompare applies.
CompareOp FlipCompare(CompareOp op);

}  // namespace smartssd::expr

#endif  // SMARTSSD_EXPR_SIMD_I64_H_
