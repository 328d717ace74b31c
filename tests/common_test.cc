#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/chunked_table.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/units.h"

namespace smartssd {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = NotFoundError("missing table");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing table");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing table");
}

TEST(StatusTest, FactoryCoversEveryCode) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(CorruptionError("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(AbortedError("x").code(), StatusCode::kAborted);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(NotFoundError("a"), NotFoundError("a"));
  EXPECT_FALSE(NotFoundError("a") == NotFoundError("b"));
  EXPECT_FALSE(NotFoundError("a") == InternalError("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = InvalidArgumentError("bad");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(5);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> v = std::move(result).value();
  EXPECT_EQ(*v, 5);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  SMARTSSD_ASSIGN_OR_RETURN(const int half, HalveEven(x));
  SMARTSSD_ASSIGN_OR_RETURN(const int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(QuarterViaMacro(8).value(), 2);
  EXPECT_FALSE(QuarterViaMacro(6).ok());  // half is odd
  EXPECT_FALSE(QuarterViaMacro(3).ok());
}

TEST(UnitsTest, TransferTime) {
  // 1000 bytes at 1000 B/s = 1 second.
  EXPECT_EQ(TransferTime(1000, 1000), kSecond);
  // 550 MB/s moving 550 MB takes one second.
  EXPECT_EQ(TransferTime(550 * kMB, 550 * kMB), kSecond);
  EXPECT_EQ(TransferTime(0, 1000), 0u);
  // Sub-nanosecond transfers round up to 1 ns, never 0.
  EXPECT_EQ(TransferTime(1, 2'000'000'000), 1u);
}

TEST(UnitsTest, CyclesToTime) {
  EXPECT_EQ(CyclesToTime(400'000'000, 400'000'000), kSecond);
  EXPECT_EQ(CyclesToTime(1, 1'000'000'000), 1u);
  EXPECT_EQ(CyclesToTime(0, 1'000'000'000), 0u);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformRespectsBound) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, UniformIntInclusiveRange) {
  Random rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RandomTest, UniformIsRoughlyUniform) {
  Random rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.Uniform(kBuckets)];
  }
  for (const int count : counts) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RandomTest, BernoulliEdgeCases) {
  Random rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits, 3000, 300);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ChunkedTableTest, UnwrittenEntriesReadFillWithoutAllocating) {
  const ChunkedTable<std::uint64_t> table(1000, 64, ~0ULL);
  EXPECT_EQ(table.Get(0), ~0ULL);
  EXPECT_EQ(table.Get(999), ~0ULL);
  for (std::uint64_t c = 0; c < 16; ++c) EXPECT_TRUE(table.chunk(c).empty());
}

TEST(ChunkedTableTest, ChunkBoundariesAndPartialLastChunk) {
  // 1,000 entries in chunks of 64: the 16th chunk holds only 40.
  ChunkedTable<std::uint64_t> table(1000, 64, ~0ULL);
  for (const std::uint64_t i : {0, 63, 64, 127, 960, 999}) {
    table.Mutable(i) = i * 10;
  }
  for (std::uint64_t c = 0; c < 16; ++c) {
    EXPECT_EQ(table.chunk(c).empty(), c != 0 && c != 1 && c != 15) << c;
  }
  for (const std::uint64_t i : {0, 63, 64, 127, 960, 999}) {
    EXPECT_EQ(table.Get(i), i * 10) << i;
  }
  for (const std::uint64_t i : {1, 62, 65, 126, 128, 959, 961, 998}) {
    EXPECT_EQ(table.Get(i), ~0ULL) << i;
  }
  ASSERT_EQ(table.chunk(1).size(), 64u);
  EXPECT_EQ(table.chunk(1).front(), 640u);
  EXPECT_EQ(table.chunk(1).back(), 1270u);
}

TEST(ChunkedTableTest, ResetChunkFreesItAndRestoresFill) {
  ChunkedTable<std::uint64_t> table(256, 64, 7);
  table.Mutable(70) = 1;
  table.Mutable(130) = 2;
  table.ResetChunk(1);
  table.ResetChunk(3);  // never allocated: a no-op
  EXPECT_TRUE(table.chunk(1).empty());
  EXPECT_TRUE(table.chunk(3).empty());
  EXPECT_EQ(table.Get(70), 7u);
  EXPECT_EQ(table.Get(130), 2u);
  table.Mutable(64) = 3;
  EXPECT_EQ(table.Get(64), 3u);
  EXPECT_EQ(table.Get(70), 7u);
}

TEST(ChunkedTableTest, MoveOnlyEntriesStartEmpty) {
  ChunkedTable<std::unique_ptr<int>> table(10, 4);
  EXPECT_EQ(table.Get(9), nullptr);
  table.Mutable(9) = std::make_unique<int>(42);
  EXPECT_EQ(table.Get(8), nullptr);
  ASSERT_NE(table.Get(9), nullptr);
  EXPECT_EQ(*table.Get(9), 42);
  ChunkedTable<std::unique_ptr<int>> moved = std::move(table);
  EXPECT_EQ(*moved.Get(9), 42);
  moved.ResetChunk(2);
  EXPECT_EQ(moved.Get(9), nullptr);
  EXPECT_TRUE(moved.chunk(2).empty());
}

}  // namespace
}  // namespace smartssd
