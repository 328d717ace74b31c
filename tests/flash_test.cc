#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "flash/flash_array.h"
#include "flash/geometry.h"

namespace smartssd::flash {
namespace {

Geometry TinyGeometry() {
  Geometry g;
  g.channels = 2;
  g.chips_per_channel = 2;
  g.blocks_per_chip = 4;
  g.pages_per_block = 4;
  g.page_size_bytes = 512;
  return g;
}

std::vector<std::byte> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>((seed + i) & 0xFF);
  }
  return data;
}

TEST(GeometryTest, Counts) {
  const Geometry g = TinyGeometry();
  EXPECT_EQ(g.total_chips(), 4u);
  EXPECT_EQ(g.total_blocks(), 16u);
  EXPECT_EQ(g.total_pages(), 64u);
  EXPECT_EQ(g.capacity_bytes(), 64u * 512u);
  EXPECT_TRUE(g.Valid());
}

TEST(GeometryTest, AddressRoundTrip) {
  const Geometry g = TinyGeometry();
  for (std::uint64_t i = 0; i < g.total_pages(); ++i) {
    const PageAddress addr = AddressFromPageIndex(g, i);
    EXPECT_TRUE(InBounds(g, addr));
    EXPECT_EQ(PageIndex(g, addr), i);
  }
}

TEST(GeometryTest, OutOfBoundsDetected) {
  const Geometry g = TinyGeometry();
  EXPECT_FALSE(InBounds(g, PageAddress{2, 0, 0, 0}));
  EXPECT_FALSE(InBounds(g, PageAddress{0, 2, 0, 0}));
  EXPECT_FALSE(InBounds(g, PageAddress{0, 0, 4, 0}));
  EXPECT_FALSE(InBounds(g, PageAddress{0, 0, 0, 4}));
  EXPECT_FALSE(InBounds(g, PageAddress{-1, 0, 0, 0}));
}

class FlashArrayTest : public ::testing::Test {
 protected:
  FlashArrayTest() : array_(TinyGeometry(), Timings{}) {}
  FlashArray array_;
};

TEST_F(FlashArrayTest, ProgramThenReadRoundTrip) {
  const auto data = Pattern(512, 3);
  const PageAddress addr{0, 0, 0, 0};
  ASSERT_TRUE(array_.ProgramPage(addr, data, 0).ok());
  std::vector<std::byte> out(512);
  auto done = array_.ReadPage(addr, 0, out);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 512), 0);
}

TEST_F(FlashArrayTest, ErasedPageReadsAsZero) {
  std::vector<std::byte> out(512, std::byte{0xFF});
  ASSERT_TRUE(array_.ReadPage(PageAddress{1, 1, 2, 3}, 0, out).ok());
  for (const std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST_F(FlashArrayTest, SequentialProgramRuleEnforced) {
  const auto data = Pattern(512, 1);
  // Page 1 before page 0 in a block: rejected.
  auto status = array_.ProgramPage(PageAddress{0, 0, 0, 1}, data, 0);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kFailedPrecondition);
  // In order is fine.
  ASSERT_TRUE(array_.ProgramPage(PageAddress{0, 0, 0, 0}, data, 0).ok());
  ASSERT_TRUE(array_.ProgramPage(PageAddress{0, 0, 0, 1}, data, 0).ok());
}

TEST_F(FlashArrayTest, NoProgramOverFullBlock) {
  const auto data = Pattern(512, 2);
  for (std::uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(array_.ProgramPage(PageAddress{0, 0, 1, p}, data, 0).ok());
  }
  EXPECT_FALSE(array_.ProgramPage(PageAddress{0, 0, 1, 0}, data, 0).ok());
}

TEST_F(FlashArrayTest, EraseResetsBlockForReprogramming) {
  const auto data = Pattern(512, 9);
  for (std::uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(array_.ProgramPage(PageAddress{0, 0, 0, p}, data, 0).ok());
  }
  ASSERT_TRUE(array_.EraseBlock(0, 0, 0, 0).ok());
  EXPECT_EQ(array_.block_state(0).erase_count, 1u);
  EXPECT_EQ(array_.block_state(0).write_pointer, 0u);
  std::vector<std::byte> out(512, std::byte{0xFF});
  ASSERT_TRUE(array_.ReadPage(PageAddress{0, 0, 0, 0}, 0, out).ok());
  EXPECT_EQ(out[0], std::byte{0});
  ASSERT_TRUE(array_.ProgramPage(PageAddress{0, 0, 0, 0}, data, 0).ok());
}

TEST_F(FlashArrayTest, OutOfRangeAddressRejected) {
  std::vector<std::byte> out(512);
  EXPECT_FALSE(array_.ReadPage(PageAddress{5, 0, 0, 0}, 0, out).ok());
  EXPECT_FALSE(array_.ProgramPage(PageAddress{0, 9, 0, 0}, out, 0).ok());
  EXPECT_FALSE(array_.EraseBlock(0, 0, 99, 0).ok());
}

TEST_F(FlashArrayTest, OversizedProgramRejected) {
  const auto data = Pattern(513, 0);
  auto status = array_.ProgramPage(PageAddress{0, 0, 0, 0}, data, 0);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FlashArrayTest, ShortProgramZeroPads) {
  const auto data = Pattern(100, 4);
  ASSERT_TRUE(array_.ProgramPage(PageAddress{0, 0, 0, 0}, data, 0).ok());
  std::vector<std::byte> out(512, std::byte{0xFF});
  ASSERT_TRUE(array_.ReadPage(PageAddress{0, 0, 0, 0}, 0, out).ok());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 100), 0);
  for (std::size_t i = 100; i < 512; ++i) {
    EXPECT_EQ(out[i], std::byte{0});
  }
}

// --- Per-block page tables (the store allocates a block's table at its
// first program and frees it when the block is erased) ---

TEST_F(FlashArrayTest, FirstAndLastPageOfABlockRoundTrip) {
  const auto first = Pattern(512, 21);
  const auto last = Pattern(512, 22);
  const std::uint32_t last_page = TinyGeometry().pages_per_block - 1;
  for (std::uint32_t p = 0; p <= last_page; ++p) {
    const auto& data = p == last_page ? last : first;
    ASSERT_TRUE(array_.ProgramPage(PageAddress{1, 0, 2, p}, data, 0).ok());
  }
  std::vector<std::byte> out(512);
  ASSERT_TRUE(array_.ReadPage(PageAddress{1, 0, 2, 0}, 0, out).ok());
  EXPECT_EQ(out, first);
  ASSERT_TRUE(array_.ReadPage(PageAddress{1, 0, 2, last_page}, 0, out).ok());
  EXPECT_EQ(out, last);
  // The neighbouring blocks were never programmed.
  ASSERT_TRUE(array_.ReadPage(PageAddress{1, 0, 1, last_page}, 0, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(512));
  ASSERT_TRUE(array_.ReadPage(PageAddress{1, 0, 3, 0}, 0, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(512));
}

TEST_F(FlashArrayTest, LastPhysicalPageOfLastBlock) {
  const Geometry g = TinyGeometry();
  const PageAddress last_block{g.channels - 1, g.chips_per_channel - 1,
                               g.blocks_per_chip - 1, 0};
  const auto data = Pattern(512, 23);
  for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
    PageAddress addr = last_block;
    addr.page = p;
    ASSERT_TRUE(array_.ProgramPage(addr, data, 0).ok());
  }
  const std::uint64_t last_index = g.total_pages() - 1;
  EXPECT_EQ(AddressFromPageIndex(g, last_index).page,
            g.pages_per_block - 1);
  EXPECT_TRUE(array_.store().IsProgrammed(last_index));
  const auto view = array_.store().View(last_index);
  ASSERT_EQ(view.size(), 512u);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), data.begin()));
  EXPECT_EQ(array_.store().allocated_bytes(), g.pages_per_block * 512u);
}

TEST(BackingStoreTest, UnprogrammedPageInAnAllocatedBlockReadsAsZero) {
  BackingStore store(TinyGeometry());
  ASSERT_TRUE(store.Program(8, Pattern(512, 5)).ok());  // block 2, page 0
  // Page 9 shares block 2's table but was never programmed.
  EXPECT_FALSE(store.IsProgrammed(9));
  EXPECT_TRUE(store.View(9).empty());
  std::vector<std::byte> out(512, std::byte{0xFF});
  ASSERT_TRUE(store.Read(9, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(512));
  EXPECT_EQ(store.allocated_bytes(), 512u);
}

TEST(BackingStoreTest, ProgramOverProgrammedAndOversizeWritesFail) {
  BackingStore store(TinyGeometry());
  ASSERT_TRUE(store.Program(3, Pattern(512, 1)).ok());
  EXPECT_EQ(store.Program(3, Pattern(512, 2)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Program(4, Pattern(513, 2)).code(),
            StatusCode::kInvalidArgument);
  // Neither failure changed what the store holds.
  EXPECT_FALSE(store.IsProgrammed(4));
  EXPECT_EQ(store.allocated_bytes(), 512u);
  std::vector<std::byte> out(512);
  ASSERT_TRUE(store.Read(3, out).ok());
  EXPECT_EQ(out, Pattern(512, 1));
}

TEST_F(FlashArrayTest, EraseReleasesBlockBytesAndReprogramReadsNewData) {
  const auto old_data = Pattern(512, 30);
  const auto new_data = Pattern(512, 31);
  // Block 0 of chip 0 holds one page that must survive the erase of
  // block 1 next to it.
  ASSERT_TRUE(array_.ProgramPage(PageAddress{0, 0, 0, 0}, old_data, 0).ok());
  const std::uint64_t before = array_.store().allocated_bytes();
  for (std::uint32_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(
        array_.ProgramPage(PageAddress{0, 0, 1, p}, old_data, 0).ok());
  }
  EXPECT_EQ(array_.store().allocated_bytes(), before + 3 * 512u);
  ASSERT_TRUE(array_.EraseBlock(0, 0, 1, 0).ok());
  EXPECT_EQ(array_.store().allocated_bytes(), before);
  const std::uint64_t first = PageIndex(TinyGeometry(), {0, 0, 1, 0});
  EXPECT_TRUE(array_.store().View(first).empty());

  ASSERT_TRUE(array_.ProgramPage(PageAddress{0, 0, 1, 0}, new_data, 0).ok());
  std::vector<std::byte> out(512);
  ASSERT_TRUE(array_.ReadPage(PageAddress{0, 0, 1, 0}, 0, out).ok());
  EXPECT_EQ(out, new_data);
  ASSERT_TRUE(array_.ReadPage(PageAddress{0, 0, 0, 0}, 0, out).ok());
  EXPECT_EQ(out, old_data);
  EXPECT_EQ(array_.store().allocated_bytes(), before + 512u);
}

// --- Timing behaviour ---

TEST_F(FlashArrayTest, SameChipReadsSerializeOnTr) {
  const Timings t;
  auto r1 = array_.ReadPageTiming(PageAddress{0, 0, 0, 0}, 0);
  auto r2 = array_.ReadPageTiming(PageAddress{0, 0, 1, 0}, 0);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Second read waits for the first chip sense to finish.
  EXPECT_GE(r2.value(), r1.value());
  EXPECT_GE(r2.value(), 2 * t.read_page);
}

TEST_F(FlashArrayTest, DifferentChipsOverlapSensing) {
  auto r1 = array_.ReadPageTiming(PageAddress{0, 0, 0, 0}, 0);
  auto r2 = array_.ReadPageTiming(PageAddress{0, 1, 0, 0}, 0);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  const Timings t;
  // Both sense in parallel; the shared channel bus staggers them only
  // by one transfer.
  EXPECT_LT(r2.value(), 2 * t.read_page);
}

TEST_F(FlashArrayTest, DifferentChannelsFullyParallel) {
  auto r1 = array_.ReadPageTiming(PageAddress{0, 0, 0, 0}, 0);
  auto r2 = array_.ReadPageTiming(PageAddress{1, 0, 0, 0}, 0);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
}

TEST_F(FlashArrayTest, OperationCountersTrack) {
  const auto data = Pattern(512, 1);
  ASSERT_TRUE(array_.ProgramPage(PageAddress{0, 0, 0, 0}, data, 0).ok());
  ASSERT_TRUE(array_.ReadPageTiming(PageAddress{0, 0, 0, 0}, 0).ok());
  ASSERT_TRUE(array_.EraseBlock(0, 0, 0, 0).ok());
  EXPECT_EQ(array_.programs(), 1u);
  EXPECT_EQ(array_.reads(), 1u);
  EXPECT_EQ(array_.erases(), 1u);
  EXPECT_GT(array_.total_chip_busy(), 0u);
  EXPECT_GT(array_.total_channel_busy(), 0u);
}

// Channel-interleaved reads should sustain roughly channels x the
// single-channel rate — the parallelism the FTL's striping exploits.
TEST(FlashTimingTest, ChannelInterleavingScalesBandwidth) {
  Geometry g = TinyGeometry();
  g.channels = 4;
  g.pages_per_block = 16;
  FlashArray array(g, Timings{});

  // 64 reads on one channel vs 64 striped over 4.
  SimTime single_done = 0;
  for (int i = 0; i < 64; ++i) {
    auto r = array.ReadPageTiming(
        PageAddress{0, i % 2, static_cast<std::uint32_t>(i / 32),
                    static_cast<std::uint32_t>(i % 16)},
        0);
    ASSERT_TRUE(r.ok());
    single_done = std::max(single_done, r.value());
  }
  array.ResetTiming();
  SimTime striped_done = 0;
  for (int i = 0; i < 64; ++i) {
    auto r = array.ReadPageTiming(
        PageAddress{i % 4, (i / 4) % 2, static_cast<std::uint32_t>(i / 32),
                    static_cast<std::uint32_t>((i / 8) % 16)},
        0);
    ASSERT_TRUE(r.ok());
    striped_done = std::max(striped_done, r.value());
  }
  EXPECT_LT(striped_done * 3, single_done);
}

}  // namespace
}  // namespace smartssd::flash
