#include "expr/simd_i64.h"

#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SMARTSSD_HAVE_AVX2_LANES 1
#else
#define SMARTSSD_HAVE_AVX2_LANES 0
#endif

namespace smartssd::expr {

namespace {

// Scalar reference used for loop tails (and the whole body on non-x86
// builds). Must match batch.cc's CmpScalar<std::int64_t> exactly.
bool CmpI64Scalar(CompareOp op, std::int64_t x, std::int64_t y) {
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

#if SMARTSSD_HAVE_AVX2_LANES

// AVX2 has signed compares for == and > only; the six operators reduce
// to three combine shapes plus an optional lane-mask inversion.
enum class Combine { kEq, kGt, kGe };

struct CmpMode {
  Combine comb;
  bool invert;
};

CmpMode ModeFor(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return {Combine::kEq, false};
    case CompareOp::kNe:
      return {Combine::kEq, true};
    case CompareOp::kGt:
      return {Combine::kGt, false};
    case CompareOp::kLe:
      return {Combine::kGt, true};
    case CompareOp::kGe:
      return {Combine::kGe, false};
    case CompareOp::kLt:
      return {Combine::kGe, true};
  }
  return {Combine::kEq, false};
}

// 4-bit lane mask -> four 0/1 output bytes (little-endian: byte j is
// lane j). Keeps the boolean-slot encoding identical to the scalar
// kernel, which writes 0/1, not 0xFF.
constexpr std::uint32_t kMask4[16] = {
    0x00000000u, 0x00000001u, 0x00000100u, 0x00000101u,
    0x00010000u, 0x00010001u, 0x00010100u, 0x00010101u,
    0x01000000u, 0x01000001u, 0x01000100u, 0x01000101u,
    0x01010000u, 0x01010001u, 0x01010100u, 0x01010101u,
};

// 8-bit survivor mask -> permutation that left-packs the surviving
// 32-bit lanes of a YMM register. 8 KiB, built at compile time.
struct PermTable {
  alignas(32) std::uint32_t idx[256][8];
};

constexpr PermTable MakePermTable() {
  PermTable t{};
  for (int m = 0; m < 256; ++m) {
    int w = 0;
    for (int b = 0; b < 8; ++b) {
      if ((m >> b) & 1) t.idx[m][w++] = static_cast<std::uint32_t>(b);
    }
    for (; w < 8; ++w) t.idx[m][w] = 0;
  }
  return t;
}

constexpr PermTable kPerm = MakePermTable();

// A narrowing compare is one AVX2 compare (==, v > lit, or lit > v)
// plus an optional inversion of its lane mask.
enum class Shape { kEq, kGt, kLt };

struct NarrowMode {
  Shape shape;
  bool invert;
};

NarrowMode NarrowModeFor(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return {Shape::kEq, false};
    case CompareOp::kNe:
      return {Shape::kEq, true};
    case CompareOp::kGt:
      return {Shape::kGt, false};
    case CompareOp::kLe:
      return {Shape::kGt, true};
    case CompareOp::kLt:
      return {Shape::kLt, false};
    case CompareOp::kGe:
      return {Shape::kLt, true};
  }
  return {Shape::kEq, false};
}

template <Shape S>
__attribute__((target("avx2,bmi2"))) inline __m256i Cmp32(__m256i v,
                                                          __m256i lit) {
  if constexpr (S == Shape::kEq) return _mm256_cmpeq_epi32(v, lit);
  if constexpr (S == Shape::kGt) return _mm256_cmpgt_epi32(v, lit);
  return _mm256_cmpgt_epi32(lit, v);
}

template <Shape S>
__attribute__((target("avx2,bmi2"))) inline __m256i Cmp64(__m256i v,
                                                          __m256i lit) {
  if constexpr (S == Shape::kEq) return _mm256_cmpeq_epi64(v, lit);
  if constexpr (S == Shape::kGt) return _mm256_cmpgt_epi64(v, lit);
  return _mm256_cmpgt_epi64(lit, v);
}

template <Shape S>
bool ShapeScalar(std::int64_t v, std::int64_t lit) {
  if constexpr (S == Shape::kEq) return v == lit;
  if constexpr (S == Shape::kGt) return v > lit;
  return lit > v;
}

// Eight lanes per step: their rows (consecutive from sel[0] when
// kDense, else loaded from sel), their values (a contiguous load or a
// gather), one 8-bit pass mask, and the passing rows left-packed into
// sel[w..]. The store window ends at most at lane i + 8, past every row
// already consumed.
template <Shape S, std::uint32_t W, bool kDense>
__attribute__((target("avx2,bmi2"))) std::size_t NarrowLanes(
    const std::byte* base, std::int64_t lit, unsigned inv,
    std::uint32_t* sel, std::size_t n) {
  const std::uint32_t first = sel[0];
  const __m256i vlit32 = _mm256_set1_epi32(static_cast<std::int32_t>(lit));
  const __m256i vlit64 = _mm256_set1_epi64x(lit);
  __m256i next = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<std::int32_t>(first)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i step = _mm256_set1_epi32(8);
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i rows;
    if constexpr (kDense) {
      rows = next;
      next = _mm256_add_epi32(next, step);
    } else {
      rows = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    }
    unsigned mask;
    if constexpr (W == 4) {
      const __m256i v =
          kDense ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                       base + (static_cast<std::size_t>(first) + i) * 4))
                 : _mm256_i32gather_epi32(
                       reinterpret_cast<const int*>(base), rows, 4);
      mask = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(Cmp32<S>(v, vlit32))));
    } else {
      __m256i lo;
      __m256i hi;
      if constexpr (kDense) {
        const std::byte* src =
            base + (static_cast<std::size_t>(first) + i) * 8;
        lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
        hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 32));
      } else {
        const auto* src = reinterpret_cast<const long long*>(base);
        lo = _mm256_i32gather_epi64(src, _mm256_castsi256_si128(rows), 8);
        hi = _mm256_i32gather_epi64(src, _mm256_extracti128_si256(rows, 1),
                                    8);
      }
      const unsigned mask_lo = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(Cmp64<S>(lo, vlit64))));
      const unsigned mask_hi = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(Cmp64<S>(hi, vlit64))));
      mask = mask_lo | mask_hi << 4;
    }
    mask ^= inv;
    const __m256i perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kPerm.idx[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + w),
                        _mm256_permutevar8x32_epi32(rows, perm));
    w += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  const bool invert = inv != 0;
  for (; i < n; ++i) {
    const std::uint32_t row =
        kDense ? first + static_cast<std::uint32_t>(i) : sel[i];
    const std::byte* p = base + static_cast<std::size_t>(row) * W;
    std::int64_t v;
    if constexpr (W == 4) {
      std::int32_t v32;
      std::memcpy(&v32, p, sizeof(v32));
      v = v32;
    } else {
      std::memcpy(&v, p, sizeof(v));
    }
    sel[w] = row;
    w += ShapeScalar<S>(v, lit) != invert ? 1 : 0;
  }
  return w;
}

template <Shape S>
std::size_t NarrowShape(const std::byte* base, std::uint32_t width,
                        std::int64_t lit, unsigned inv, bool dense,
                        std::uint32_t* sel, std::size_t n) {
  if (width == 4) {
    return dense ? NarrowLanes<S, 4, true>(base, lit, inv, sel, n)
                 : NarrowLanes<S, 4, false>(base, lit, inv, sel, n);
  }
  return dense ? NarrowLanes<S, 8, true>(base, lit, inv, sel, n)
               : NarrowLanes<S, 8, false>(base, lit, inv, sel, n);
}

#endif  // SMARTSSD_HAVE_AVX2_LANES

}  // namespace

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      break;
  }
  return op;
}

#if SMARTSSD_HAVE_AVX2_LANES

__attribute__((target("avx2,bmi2"))) void CmpI64VecLitAvx2(
    CompareOp op, const std::int64_t* a, std::int64_t lit, std::uint8_t* out,
    std::size_t n) {
  const CmpMode mode = ModeFor(op);
  const unsigned inv = mode.invert ? 0xFu : 0u;
  const __m256i vb = _mm256_set1_epi64x(lit);
  std::size_t i = 0;
  switch (mode.comb) {
    case Combine::kEq:
      for (; i + 4 <= n; i += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const unsigned m =
            static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(va, vb)))) ^
            inv;
        std::memcpy(out + i, &kMask4[m], 4);
      }
      break;
    case Combine::kGt:
      for (; i + 4 <= n; i += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const unsigned m =
            static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpgt_epi64(va, vb)))) ^
            inv;
        std::memcpy(out + i, &kMask4[m], 4);
      }
      break;
    case Combine::kGe:
      for (; i + 4 <= n; i += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i ge = _mm256_or_si256(_mm256_cmpgt_epi64(va, vb),
                                           _mm256_cmpeq_epi64(va, vb));
        const unsigned m =
            static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(ge))) ^
            inv;
        std::memcpy(out + i, &kMask4[m], 4);
      }
      break;
  }
  for (; i < n; ++i) out[i] = CmpI64Scalar(op, a[i], lit) ? 1 : 0;
}

__attribute__((target("avx2,bmi2"))) void CmpI64VecVecAvx2(
    CompareOp op, const std::int64_t* a, const std::int64_t* b,
    std::uint8_t* out, std::size_t n) {
  const CmpMode mode = ModeFor(op);
  const unsigned inv = mode.invert ? 0xFu : 0u;
  std::size_t i = 0;
  switch (mode.comb) {
    case Combine::kEq:
      for (; i + 4 <= n; i += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const unsigned m =
            static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(va, vb)))) ^
            inv;
        std::memcpy(out + i, &kMask4[m], 4);
      }
      break;
    case Combine::kGt:
      for (; i + 4 <= n; i += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const unsigned m =
            static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpgt_epi64(va, vb)))) ^
            inv;
        std::memcpy(out + i, &kMask4[m], 4);
      }
      break;
    case Combine::kGe:
      for (; i + 4 <= n; i += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const __m256i ge = _mm256_or_si256(_mm256_cmpgt_epi64(va, vb),
                                           _mm256_cmpeq_epi64(va, vb));
        const unsigned m =
            static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(ge))) ^
            inv;
        std::memcpy(out + i, &kMask4[m], 4);
      }
      break;
  }
  for (; i < n; ++i) out[i] = CmpI64Scalar(op, a[i], b[i]) ? 1 : 0;
}

__attribute__((target("avx2,bmi2"))) std::size_t CompactSelAvx2(
    std::uint32_t* sel, const std::uint8_t* b8, bool keep, std::size_t n) {
  std::size_t w = 0;
  std::size_t i = 0;
  const unsigned inv = keep ? 0u : 0xFFu;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t bytes;
    std::memcpy(&bytes, b8 + i, sizeof(bytes));
    // One bit per 0/1 byte (the documented boolean-slot encoding).
    const unsigned mask =
        static_cast<unsigned>(_pext_u64(bytes, 0x0101010101010101ull)) ^ inv;
    const __m256i lanes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    const __m256i perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kPerm.idx[mask]));
    // In-place is safe: the store window [w, w+8) ends at most at i+8,
    // and lanes [i, i+8) were loaded above before this store.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + w),
                        _mm256_permutevar8x32_epi32(lanes, perm));
    w += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  for (; i < n; ++i) {
    if ((b8[i] != 0) == keep) sel[w++] = sel[i];
  }
  return w;
}

std::size_t NarrowCmpAvx2(CompareOp op, const std::byte* base,
                          std::uint32_t width, std::int64_t lit, bool dense,
                          std::uint32_t* sel, std::size_t n) {
  if (n == 0) return 0;
  const NarrowMode mode = NarrowModeFor(op);
  const unsigned inv = mode.invert ? 0xFFu : 0u;
  switch (mode.shape) {
    case Shape::kEq:
      return NarrowShape<Shape::kEq>(base, width, lit, inv, dense, sel, n);
    case Shape::kGt:
      return NarrowShape<Shape::kGt>(base, width, lit, inv, dense, sel, n);
    case Shape::kLt:
      return NarrowShape<Shape::kLt>(base, width, lit, inv, dense, sel, n);
  }
  return n;
}

__attribute__((target("avx2,bmi2"))) void LoadI64ContigAvx2(
    const std::byte* src, std::uint32_t width, std::int64_t* out,
    std::size_t n) {
  if (width == 8) {
    std::memcpy(out, src, n * sizeof(std::int64_t));
    return;
  }
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i * sizeof(std::int32_t)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_cvtepi32_epi64(v));
  }
  for (; i < n; ++i) {
    std::int32_t v;
    std::memcpy(&v, src + i * sizeof(std::int32_t), sizeof(v));
    out[i] = v;
  }
}

__attribute__((target("avx2,bmi2"))) bool ArithI64VecVecAvx2(
    ArithOp op, const std::int64_t* a, const std::int64_t* b,
    std::int64_t* out, std::size_t n) {
  if (op != ArithOp::kAdd && op != ArithOp::kSub) return false;
  const bool add = op == ArithOp::kAdd;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        add ? _mm256_add_epi64(va, vb) : _mm256_sub_epi64(va, vb));
  }
  for (; i < n; ++i) out[i] = add ? a[i] + b[i] : a[i] - b[i];
  return true;
}

__attribute__((target("avx2,bmi2"))) bool ArithI64VecLitAvx2(
    ArithOp op, const std::int64_t* a, std::int64_t lit, std::int64_t* out,
    std::size_t n) {
  if (op != ArithOp::kAdd && op != ArithOp::kSub) return false;
  const bool add = op == ArithOp::kAdd;
  const __m256i vb = _mm256_set1_epi64x(lit);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        add ? _mm256_add_epi64(va, vb) : _mm256_sub_epi64(va, vb));
  }
  for (; i < n; ++i) out[i] = add ? a[i] + lit : a[i] - lit;
  return true;
}

__attribute__((target("avx2,bmi2"))) bool ArithI64LitVecAvx2(
    ArithOp op, std::int64_t lit, const std::int64_t* b, std::int64_t* out,
    std::size_t n) {
  if (op != ArithOp::kAdd && op != ArithOp::kSub) return false;
  const bool add = op == ArithOp::kAdd;
  const __m256i va = _mm256_set1_epi64x(lit);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        add ? _mm256_add_epi64(va, vb) : _mm256_sub_epi64(va, vb));
  }
  for (; i < n; ++i) out[i] = add ? lit + b[i] : lit - b[i];
  return true;
}

#else  // !SMARTSSD_HAVE_AVX2_LANES

// Portable bodies so non-x86 builds link; unreachable in practice
// because ISA detection never selects kAvx2 off x86.

void CmpI64VecLitAvx2(CompareOp op, const std::int64_t* a, std::int64_t lit,
                      std::uint8_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = CmpI64Scalar(op, a[i], lit) ? 1 : 0;
  }
}

void CmpI64VecVecAvx2(CompareOp op, const std::int64_t* a,
                      const std::int64_t* b, std::uint8_t* out,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = CmpI64Scalar(op, a[i], b[i]) ? 1 : 0;
  }
}

std::size_t CompactSelAvx2(std::uint32_t* sel, const std::uint8_t* b8,
                           bool keep, std::size_t n) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if ((b8[i] != 0) == keep) sel[w++] = sel[i];
  }
  return w;
}

std::size_t NarrowCmpAvx2(CompareOp op, const std::byte* base,
                          std::uint32_t width, std::int64_t lit, bool,
                          std::uint32_t* sel, std::size_t n) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t row = sel[i];
    const std::byte* p = base + static_cast<std::size_t>(row) * width;
    std::int64_t v;
    if (width == 4) {
      std::int32_t v32;
      std::memcpy(&v32, p, sizeof(v32));
      v = v32;
    } else {
      std::memcpy(&v, p, sizeof(v));
    }
    sel[w] = row;
    w += CmpI64Scalar(op, v, lit) ? 1 : 0;
  }
  return w;
}

void LoadI64ContigAvx2(const std::byte* src, std::uint32_t width,
                       std::int64_t* out, std::size_t n) {
  if (width == 8) {
    std::memcpy(out, src, n * sizeof(std::int64_t));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::int32_t v;
    std::memcpy(&v, src + i * sizeof(std::int32_t), sizeof(v));
    out[i] = v;
  }
}

bool ArithI64VecVecAvx2(ArithOp op, const std::int64_t* a,
                        const std::int64_t* b, std::int64_t* out,
                        std::size_t n) {
  if (op != ArithOp::kAdd && op != ArithOp::kSub) return false;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = op == ArithOp::kAdd ? a[i] + b[i] : a[i] - b[i];
  }
  return true;
}

bool ArithI64VecLitAvx2(ArithOp op, const std::int64_t* a, std::int64_t lit,
                        std::int64_t* out, std::size_t n) {
  if (op != ArithOp::kAdd && op != ArithOp::kSub) return false;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = op == ArithOp::kAdd ? a[i] + lit : a[i] - lit;
  }
  return true;
}

bool ArithI64LitVecAvx2(ArithOp op, std::int64_t lit, const std::int64_t* b,
                        std::int64_t* out, std::size_t n) {
  if (op != ArithOp::kAdd && op != ArithOp::kSub) return false;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = op == ArithOp::kAdd ? lit + b[i] : lit - b[i];
  }
  return true;
}

#endif  // SMARTSSD_HAVE_AVX2_LANES

}  // namespace smartssd::expr
