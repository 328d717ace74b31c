// Randomized buffer pool testing against a reference model: a plain
// map of the "current logical contents" of every page. Any sequence of
// reads, writes, flushes, and clears must keep the pool's answers equal
// to the model's, and the device state equal after a flush.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.h"
#include "engine/buffer_pool.h"
#include "ssd/ssd_device.h"

namespace smartssd::engine {
namespace {

constexpr std::uint64_t kPages = 200;

class BufferPoolPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BufferPoolPropertyTest, PoolMatchesReferenceModel) {
  Random rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  ssd::SsdConfig config = ssd::SsdConfig::PaperSmartSsd();
  config.geometry.blocks_per_chip = 32;
  ssd::SsdDevice device(config);
  const std::uint32_t page_size = device.page_size();

  // Preload every page with a known tag; the model mirrors it.
  std::map<std::uint64_t, std::uint8_t> model;
  {
    std::vector<std::byte> page(page_size);
    SimTime t = 0;
    for (std::uint64_t lpn = 0; lpn < kPages; ++lpn) {
      const std::uint8_t tag = static_cast<std::uint8_t>(rng.Uniform(256));
      std::fill(page.begin(), page.end(), std::byte{tag});
      auto done = device.WritePages(lpn, 1, page, t);
      ASSERT_TRUE(done.ok());
      t = done.value();
      model[lpn] = tag;
    }
    device.ResetTiming();
  }

  // Small pool to force constant eviction.
  BufferPool pool(&device, 48);
  SimTime t = 0;
  for (int step = 0; step < 600; ++step) {
    const std::uint64_t lpn = rng.Uniform(kPages);
    switch (rng.Uniform(10)) {
      case 0: {  // write through the pool
        const std::uint8_t tag =
            static_cast<std::uint8_t>(rng.Uniform(256));
        std::vector<std::byte> page(page_size, std::byte{tag});
        auto done = pool.WritePage(lpn, page, t);
        ASSERT_TRUE(done.ok());
        t = done.value();
        model[lpn] = tag;
        EXPECT_TRUE(pool.IsDirty(lpn));
        break;
      }
      case 1: {  // flush everything
        auto done = pool.FlushAll(t);
        ASSERT_TRUE(done.ok());
        t = done.value();
        EXPECT_FALSE(pool.HasDirtyInRange(0, kPages));
        break;
      }
      case 2: {  // flush + clear (cold run)
        auto done = pool.FlushAll(t);
        ASSERT_TRUE(done.ok());
        t = done.value();
        pool.Clear();
        EXPECT_EQ(pool.CachedInRange(0, kPages), 0u);
        break;
      }
      default: {  // read
        const std::uint64_t misses = pool.misses();
        auto page = pool.GetPage(lpn, t, kPages);
        ASSERT_TRUE(page.ok());
        t = page->second;
        EXPECT_EQ(page->first[0], std::byte{model[lpn]})
            << "step " << step << " lpn " << lpn;
        // Time never runs backwards.
        EXPECT_GE(page->second, 0u);
        if (pool.misses() == misses) break;
        // A miss installed a read-ahead range: every page of it now
        // cached must hold its current contents, also one the install
        // wrote back while evicting for an earlier page of the range.
        for (std::uint64_t p = lpn;
             p < std::min(lpn + BufferPool::kReadAheadPages, kPages); ++p) {
          const std::span<const std::byte> cached = pool.CachedPage(p);
          if (cached.empty()) continue;
          EXPECT_EQ(cached[0], std::byte{model[p]})
              << "step " << step << " range " << lpn << " lpn " << p;
        }
        break;
      }
    }
  }

  // Final flush: the device must hold exactly the model's contents.
  ASSERT_TRUE(pool.FlushAll(t).ok());
  std::vector<std::byte> page(page_size);
  for (const auto& [lpn, tag] : model) {
    ASSERT_TRUE(device.ReadPages(lpn, 1, page, t).ok());
    EXPECT_EQ(page[0], std::byte{tag}) << "lpn " << lpn;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferPoolPropertyTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace smartssd::engine
