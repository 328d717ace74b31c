#include <gtest/gtest.h>

#include <vector>

#include "engine/buffer_pool.h"
#include "ssd/ssd_device.h"

namespace smartssd::engine {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : device_(MakeConfig()), pool_(&device_, 64) {
    Preload(512);
  }

  static ssd::SsdConfig MakeConfig() {
    ssd::SsdConfig config = ssd::SsdConfig::PaperSmartSsd();
    config.geometry.blocks_per_chip = 32;
    return config;
  }

  void Preload(std::uint64_t pages) {
    std::vector<std::byte> page(device_.page_size());
    SimTime t = 0;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
      page[0] = static_cast<std::byte>(lpn & 0xFF);
      auto done = device_.WritePages(lpn, 1, page, t);
      ASSERT_TRUE(done.ok());
      t = done.value();
    }
    device_.ResetTiming();
  }

  ssd::SsdDevice device_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  auto first = pool_.GetPage(3, 0, 512);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->first[0], std::byte{3});
  EXPECT_EQ(pool_.misses(), 1u);

  auto second = pool_.GetPage(3, first->second, 512);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pool_.hits(), 1u);
  // Hit costs no further I/O time.
  EXPECT_EQ(second->second, first->second);
}

TEST_F(BufferPoolTest, ReadaheadCachesFollowingPages) {
  ASSERT_TRUE(pool_.GetPage(0, 0, 512).ok());
  for (std::uint64_t lpn = 1; lpn < BufferPool::kReadAheadPages; ++lpn) {
    EXPECT_TRUE(pool_.IsCached(lpn)) << lpn;
  }
  EXPECT_FALSE(pool_.IsCached(BufferPool::kReadAheadPages));
}

TEST_F(BufferPoolTest, ReadaheadHitsWaitForBatchIo) {
  auto first = pool_.GetPage(0, 0, 512);
  ASSERT_TRUE(first.ok());
  // Page 31 was installed by the same batch; consuming it "now" (t=0)
  // must still wait for the batch completion.
  auto hit = pool_.GetPage(31, 0, 512);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->second, first->second);
}

TEST_F(BufferPoolTest, ReadaheadRespectsLimit) {
  // Scan bounded at lpn 5: a miss on 4 must not read past the limit.
  ASSERT_TRUE(pool_.GetPage(4, 0, 5).ok());
  EXPECT_TRUE(pool_.IsCached(4));
  EXPECT_FALSE(pool_.IsCached(5));
}

TEST_F(BufferPoolTest, EvictionKeepsCapacityBound) {
  // Touch far more pages than capacity.
  SimTime t = 0;
  for (std::uint64_t lpn = 0; lpn < 256; ++lpn) {
    auto page = pool_.GetPage(lpn, t, 512);
    ASSERT_TRUE(page.ok());
    t = page->second;
  }
  std::uint64_t cached = pool_.CachedInRange(0, 512);
  EXPECT_LE(cached, pool_.capacity_pages());
  EXPECT_GT(cached, 0u);
  // The most recent pages survive.
  EXPECT_TRUE(pool_.IsCached(255));
}

TEST_F(BufferPoolTest, DirtyTrackingAndFlush) {
  std::vector<std::byte> page(device_.page_size(), std::byte{0xCD});
  ASSERT_TRUE(pool_.WritePage(9, page, 0).ok());
  EXPECT_TRUE(pool_.IsDirty(9));
  EXPECT_TRUE(pool_.HasDirtyInRange(0, 512));
  EXPECT_FALSE(pool_.HasDirtyInRange(10, 100));

  ASSERT_TRUE(pool_.FlushAll(0).ok());
  EXPECT_FALSE(pool_.IsDirty(9));

  // The device saw the new bytes.
  std::vector<std::byte> out(device_.page_size());
  ASSERT_TRUE(device_.ReadPages(9, 1, out, 0).ok());
  EXPECT_EQ(out[0], std::byte{0xCD});
}

TEST_F(BufferPoolTest, DirtyPageSurvivesEvictionViaWriteback) {
  std::vector<std::byte> page(device_.page_size(), std::byte{0xEE});
  ASSERT_TRUE(pool_.WritePage(2, page, 0).ok());
  // Force eviction pressure.
  SimTime t = 0;
  for (std::uint64_t lpn = 100; lpn < 100 + 128; ++lpn) {
    auto p = pool_.GetPage(lpn, t, 512);
    ASSERT_TRUE(p.ok());
    t = p->second;
  }
  // Whether or not 2 is still resident, its contents are durable.
  ASSERT_TRUE(pool_.FlushAll(t).ok());
  std::vector<std::byte> out(device_.page_size());
  ASSERT_TRUE(device_.ReadPages(2, 1, out, t).ok());
  EXPECT_EQ(out[0], std::byte{0xEE});
}

TEST_F(BufferPoolTest, ReadaheadPlacesPageWrittenBackDuringInstall) {
  // Page 20 is dirty in a full pool when a read-ahead of pages 0..31
  // starts. Installing the range evicts page 20 (writing it back)
  // before it reaches page 20's turn, so the bytes read at the start
  // are stale for it: the pool must place what it wrote back.
  std::vector<std::byte> page(device_.page_size(), std::byte{0xAB});
  auto written = pool_.WritePage(20, page, 0);
  ASSERT_TRUE(written.ok());
  SimTime t = written.value();
  for (const auto& [lpn, limit] :
       {std::pair<std::uint64_t, std::uint64_t>{100, 163}, {200, 231},
        {0, 32}}) {
    auto p = pool_.GetPage(lpn, t, limit);
    ASSERT_TRUE(p.ok());
    t = p->second;
  }
  ASSERT_TRUE(pool_.IsCached(20));
  EXPECT_FALSE(pool_.IsDirty(20));  // written back by the install
  auto cached = pool_.GetPage(20, t, 512);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->first[0], std::byte{0xAB});
  std::vector<std::byte> out(device_.page_size());
  ASSERT_TRUE(device_.ReadPages(20, 1, out, t).ok());
  EXPECT_EQ(out[0], std::byte{0xAB});
}

TEST_F(BufferPoolTest, ClearEmptiesCleanPool) {
  ASSERT_TRUE(pool_.GetPage(0, 0, 512).ok());
  EXPECT_GT(pool_.CachedInRange(0, 512), 0u);
  pool_.Clear();
  EXPECT_EQ(pool_.CachedInRange(0, 512), 0u);
  EXPECT_FALSE(pool_.IsCached(0));
}

TEST_F(BufferPoolTest, WrongSizeWriteRejected) {
  std::vector<std::byte> tiny(3);
  EXPECT_FALSE(pool_.WritePage(0, tiny, 0).ok());
}

TEST_F(BufferPoolTest, SequentialScanIsMostlyHits) {
  SimTime t = 0;
  for (std::uint64_t lpn = 0; lpn < 128; ++lpn) {
    auto page = pool_.GetPage(lpn, t, 128);
    ASSERT_TRUE(page.ok());
    t = page->second;
  }
  // One miss per 32-page readahead batch.
  EXPECT_EQ(pool_.misses(), 128u / BufferPool::kReadAheadPages);
  EXPECT_EQ(pool_.hits(), 128u - pool_.misses());
}

}  // namespace
}  // namespace smartssd::engine
