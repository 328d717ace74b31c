#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "flash/flash_array.h"
#include "ftl/ftl.h"

namespace smartssd::ftl {
namespace {

flash::Geometry TinyGeometry() {
  flash::Geometry g;
  g.channels = 2;
  g.chips_per_channel = 2;
  g.blocks_per_chip = 8;
  g.pages_per_block = 4;
  g.page_size_bytes = 256;
  return g;
}

std::vector<std::byte> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>((seed * 31 + i) & 0xFF);
  }
  return data;
}

class FtlTest : public ::testing::Test {
 protected:
  FtlTest()
      : array_(TinyGeometry(), flash::Timings{}),
        ftl_(&array_, FtlConfig{}) {}

  flash::FlashArray array_;
  Ftl ftl_;
};

TEST_F(FtlTest, LogicalCapacityReflectsOverProvisioning) {
  // 128 physical pages, 12.5% OP -> 112 logical.
  EXPECT_EQ(ftl_.logical_pages(), 112u);
}

TEST_F(FtlTest, WriteThenReadRoundTrip) {
  const auto data = Pattern(256, 1);
  ASSERT_TRUE(ftl_.Write(5, data, 0).ok());
  std::vector<std::byte> out(256);
  ASSERT_TRUE(ftl_.Read(5, out, 0).ok());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 256), 0);
  EXPECT_TRUE(ftl_.IsMapped(5));
}

TEST_F(FtlTest, UnmappedReadsAsZeroWithoutFlashOp) {
  std::vector<std::byte> out(256, std::byte{0xAB});
  const std::uint64_t reads_before = array_.reads();
  ASSERT_TRUE(ftl_.Read(7, out, 0).ok());
  for (const std::byte b : out) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(array_.reads(), reads_before);
  EXPECT_EQ(ftl_.stats().unmapped_reads, 1u);
}

TEST_F(FtlTest, OverwriteRemapsAndInvalidates) {
  const auto v1 = Pattern(256, 1);
  const auto v2 = Pattern(256, 2);
  ASSERT_TRUE(ftl_.Write(3, v1, 0).ok());
  ASSERT_TRUE(ftl_.Write(3, v2, 0).ok());
  std::vector<std::byte> out(256);
  ASSERT_TRUE(ftl_.Read(3, out, 0).ok());
  EXPECT_EQ(std::memcmp(out.data(), v2.data(), 256), 0);
  EXPECT_EQ(ftl_.stats().host_writes, 2u);
}

TEST_F(FtlTest, TrimUnmaps) {
  ASSERT_TRUE(ftl_.Write(3, Pattern(256, 1), 0).ok());
  ASSERT_TRUE(ftl_.Trim(3).ok());
  EXPECT_FALSE(ftl_.IsMapped(3));
  std::vector<std::byte> out(256, std::byte{1});
  ASSERT_TRUE(ftl_.Read(3, out, 0).ok());
  EXPECT_EQ(out[0], std::byte{0});
}

TEST_F(FtlTest, OutOfRangeOperationsRejected) {
  const std::uint64_t beyond = ftl_.logical_pages();
  EXPECT_FALSE(ftl_.Write(beyond, Pattern(256, 1), 0).ok());
  std::vector<std::byte> out(256);
  EXPECT_FALSE(ftl_.Read(beyond, out, 0).ok());
  EXPECT_FALSE(ftl_.Trim(beyond).ok());
}

TEST_F(FtlTest, OversizedWriteRejected) {
  EXPECT_FALSE(ftl_.Write(0, Pattern(257, 1), 0).ok());
}

TEST_F(FtlTest, StripesAcrossChannels) {
  // Sequential writes land on alternating channels, so sequential reads
  // can stream from all channels at once.
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    ASSERT_TRUE(ftl_.Write(lpn, Pattern(256, lpn), 0).ok());
  }
  array_.ResetTiming();
  SimTime parallel_done = 0;
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    auto r = ftl_.ReadTiming(lpn, 0);
    ASSERT_TRUE(r.ok());
    parallel_done = std::max(parallel_done, r.value());
  }
  // 8 reads over 4 chips: roughly 2 serial tR, not 8.
  const flash::Timings t;
  EXPECT_LT(parallel_done, 4 * t.read_page);
}

TEST_F(FtlTest, ViewMatchesRead) {
  const auto data = Pattern(256, 7);
  ASSERT_TRUE(ftl_.Write(1, data, 0).ok());
  const auto view = ftl_.View(1);
  ASSERT_EQ(view.size(), 256u);
  EXPECT_EQ(std::memcmp(view.data(), data.data(), 256), 0);
  EXPECT_TRUE(ftl_.View(99).empty());
}

TEST_F(FtlTest, FillToLogicalCapacityAndRewrite) {
  // Fill every logical page, then overwrite everything once: GC must
  // reclaim invalidated pages without data loss.
  const std::uint64_t n = ftl_.logical_pages();
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::uint64_t lpn = 0; lpn < n; ++lpn) {
      const auto data =
          Pattern(256, static_cast<std::uint8_t>(lpn + round * 13));
      ASSERT_TRUE(ftl_.Write(lpn, data, 0).ok())
          << "round " << round << " lpn " << lpn;
    }
  }
  for (std::uint64_t lpn = 0; lpn < n; ++lpn) {
    std::vector<std::byte> out(256);
    ASSERT_TRUE(ftl_.Read(lpn, out, 0).ok());
    const auto expected = Pattern(256, static_cast<std::uint8_t>(lpn + 13));
    EXPECT_EQ(std::memcmp(out.data(), expected.data(), 256), 0)
        << "lpn " << lpn;
  }
  EXPECT_GT(ftl_.stats().gc_runs, 0u);
  EXPECT_GT(ftl_.stats().block_erases, 0u);
  EXPECT_GE(ftl_.stats().write_amplification(), 1.0);
}

TEST_F(FtlTest, HotOverwriteWorkloadKeepsWriteAmplificationSane) {
  // Repeatedly overwrite a small hot set; GC victims are mostly
  // invalid, so write amplification stays modest.
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
      ASSERT_TRUE(
          ftl_.Write(lpn, Pattern(256, static_cast<std::uint8_t>(round)), 0)
              .ok());
    }
  }
  EXPECT_LT(ftl_.stats().write_amplification(), 2.0);
  EXPECT_GT(ftl_.max_erase_count(), 0u);
}

TEST_F(FtlTest, WearSpreadsAcrossBlocks) {
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t lpn = 0; lpn < 16; ++lpn) {
      ASSERT_TRUE(
          ftl_.Write(lpn, Pattern(256, static_cast<std::uint8_t>(lpn)), 0)
              .ok());
    }
  }
  // Striped allocation plus greedy GC: no single block absorbs all
  // erases.
  const flash::Geometry g = TinyGeometry();
  const std::uint32_t max_erases = ftl_.max_erase_count();
  std::uint64_t total_erases = 0;
  for (std::uint64_t b = 0; b < g.total_blocks(); ++b) {
    total_erases += array_.block_state(b).erase_count;
  }
  EXPECT_GT(total_erases, 0u);
  EXPECT_LE(max_erases, total_erases);  // sanity
  EXPECT_LT(max_erases * 2, total_erases + max_erases);
}

TEST_F(FtlTest, GcPreservesAllLiveData) {
  // Property: after heavy churn, every live LPN still returns its last
  // written pattern.
  std::vector<std::uint8_t> latest(32, 0);
  smartssd::Random rng(99);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t lpn = rng.Uniform(32);
    const std::uint8_t tag = static_cast<std::uint8_t>(rng.Uniform(250));
    ASSERT_TRUE(ftl_.Write(lpn, Pattern(256, tag), 0).ok());
    latest[lpn] = tag;
  }
  for (std::uint64_t lpn = 0; lpn < 32; ++lpn) {
    std::vector<std::byte> out(256);
    ASSERT_TRUE(ftl_.Read(lpn, out, 0).ok());
    const auto expected = Pattern(256, latest[lpn]);
    EXPECT_EQ(std::memcmp(out.data(), expected.data(), 256), 0)
        << "lpn " << lpn;
  }
}

// --- Chunked maps: every boundary of the two-level tables ---

// 2 x 2 chips x 16 blocks x 32 pages = 2,048 physical pages and 1,792
// logical ones, so both maps span several chunks and the logical map
// ends in a partial one.
flash::Geometry MultiChunkGeometry() {
  flash::Geometry g = TinyGeometry();
  g.blocks_per_chip = 16;
  g.pages_per_block = 32;
  return g;
}

class ChunkedMapTest : public ::testing::Test {
 protected:
  ChunkedMapTest()
      : array_(MultiChunkGeometry(), flash::Timings{}),
        ftl_(&array_, FtlConfig{}) {}

  void ExpectReadsBack(std::uint64_t lpn, std::uint8_t tag) {
    std::vector<std::byte> out(256);
    ASSERT_TRUE(ftl_.Read(lpn, out, 0).ok()) << "lpn " << lpn;
    EXPECT_EQ(out, Pattern(256, tag)) << "lpn " << lpn;
    const auto view = ftl_.View(lpn);
    ASSERT_EQ(view.size(), 256u) << "lpn " << lpn;
    EXPECT_TRUE(std::equal(view.begin(), view.end(), out.begin()));
  }

  flash::FlashArray array_;
  Ftl ftl_;
};

TEST_F(ChunkedMapTest, FirstAndLastEntryOfAChunk) {
  constexpr std::uint64_t kChunk = Ftl::kMapChunkEntries;
  ASSERT_GT(ftl_.logical_pages(), 3 * kChunk);
  const std::uint64_t lpns[] = {0, kChunk - 1, kChunk, 2 * kChunk - 1,
                                2 * kChunk};
  std::uint8_t tag = 40;
  for (const std::uint64_t lpn : lpns) {
    ASSERT_TRUE(ftl_.Write(lpn, Pattern(256, tag++), 0).ok());
  }
  tag = 40;
  for (const std::uint64_t lpn : lpns) ExpectReadsBack(lpn, tag++);
  // Entries next to them, inside the same allocated chunks, stay
  // unmapped and read as zeros without a flash operation.
  const std::uint64_t reads_before = array_.reads();
  for (const std::uint64_t lpn : {std::uint64_t{1}, kChunk - 2, kChunk + 1,
                                  2 * kChunk - 2, 2 * kChunk + 1}) {
    EXPECT_FALSE(ftl_.IsMapped(lpn)) << "lpn " << lpn;
    EXPECT_TRUE(ftl_.View(lpn).empty()) << "lpn " << lpn;
    std::vector<std::byte> out(256, std::byte{0xCD});
    ASSERT_TRUE(ftl_.Read(lpn, out, 0).ok());
    EXPECT_EQ(out, std::vector<std::byte>(256));
  }
  EXPECT_EQ(array_.reads(), reads_before);
}

TEST_F(ChunkedMapTest, TopLogicalPageWhereSpillExtentsStart) {
  const std::uint64_t top = ftl_.logical_pages() - 1;
  ASSERT_NE(ftl_.logical_pages() % Ftl::kMapChunkEntries, 0u);
  EXPECT_FALSE(ftl_.IsMapped(top));
  ASSERT_TRUE(ftl_.Write(top, Pattern(256, 50), 0).ok());
  ASSERT_TRUE(ftl_.Write(top - 1, Pattern(256, 51), 0).ok());
  ExpectReadsBack(top, 50);
  ExpectReadsBack(top - 1, 51);
  EXPECT_FALSE(ftl_.IsMapped(0));
  // Overwrite and trim at the top keep the map consistent.
  ASSERT_TRUE(ftl_.Write(top, Pattern(256, 52), 0).ok());
  ExpectReadsBack(top, 52);
  ASSERT_TRUE(ftl_.Trim(top).ok());
  EXPECT_FALSE(ftl_.IsMapped(top));
  EXPECT_TRUE(ftl_.View(top).empty());
  ExpectReadsBack(top - 1, 51);
  EXPECT_FALSE(ftl_.Write(top + 1, Pattern(256, 53), 0).ok());
}

TEST_F(ChunkedMapTest, GcRelocatesAcrossEveryPhysicalChunk) {
  // Fill the top of the logical range, then churn the rest so GC walks
  // every physical block while the top's pages move underneath it.
  const std::uint64_t n = ftl_.logical_pages();
  for (std::uint64_t lpn = n - 64; lpn < n; ++lpn) {
    ASSERT_TRUE(
        ftl_.Write(lpn, Pattern(256, static_cast<std::uint8_t>(lpn)), 0)
            .ok());
  }
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t lpn = 0; lpn < n - 64; ++lpn) {
      ASSERT_TRUE(ftl_.Write(lpn,
                             Pattern(256, static_cast<std::uint8_t>(
                                              lpn + round)),
                             0)
                      .ok());
    }
  }
  // Every block, the last one included, has been collected, so GC
  // looked up p2l entries in every physical chunk.
  EXPECT_GT(ftl_.stats().gc_relocations, 0u);
  EXPECT_GT(ftl_.min_erase_count(), 0u);
  for (std::uint64_t lpn = n - 64; lpn < n; ++lpn) {
    ExpectReadsBack(lpn, static_cast<std::uint8_t>(lpn));
  }
  for (std::uint64_t lpn = 0; lpn < n - 64; lpn += 97) {
    ExpectReadsBack(lpn, static_cast<std::uint8_t>(lpn + 2));
  }
}

}  // namespace
}  // namespace smartssd::ftl
