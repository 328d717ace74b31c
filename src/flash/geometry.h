#ifndef SMARTSSD_FLASH_GEOMETRY_H_
#define SMARTSSD_FLASH_GEOMETRY_H_

#include <cstdint>

#include "common/macros.h"
#include "common/units.h"

namespace smartssd::flash {

// Physical layout of the NAND array. Mirrors the architecture in the
// paper's Figure 2: multiple channels, multiple chips per channel, blocks
// of pages per chip. Erase granularity is a block; read/program granularity
// is a page.
struct Geometry {
  int channels = 8;
  int chips_per_channel = 4;
  std::uint32_t blocks_per_chip = 256;
  std::uint32_t pages_per_block = 128;
  std::uint32_t page_size_bytes = 8 * kKiB;

  std::uint64_t pages_per_chip() const {
    return static_cast<std::uint64_t>(blocks_per_chip) * pages_per_block;
  }
  std::uint64_t total_chips() const {
    return static_cast<std::uint64_t>(channels) * chips_per_channel;
  }
  std::uint64_t total_blocks() const {
    return total_chips() * blocks_per_chip;
  }
  std::uint64_t total_pages() const {
    return total_chips() * pages_per_chip();
  }
  std::uint64_t capacity_bytes() const {
    return total_pages() * page_size_bytes;
  }

  bool Valid() const {
    return channels > 0 && chips_per_channel > 0 && blocks_per_chip > 0 &&
           pages_per_block > 0 && page_size_bytes > 0;
  }
};

// NAND operation timings and channel characteristics. Defaults are
// MLC-class numbers consistent with the paper's 2013-era device.
struct Timings {
  SimDuration read_page = 75 * kMicrosecond;     // tR
  SimDuration program_page = 800 * kMicrosecond;  // tPROG
  SimDuration erase_block = 2 * kMillisecond;     // tBERS
  // ONFI-style channel bus payload bandwidth, per channel.
  std::uint64_t channel_bytes_per_second = 330 * kMB;
  // ECC decode cost, charged per page on the channel controller and
  // pipelined with the bus transfer (we take the max of the two).
  SimDuration ecc_per_page = 6 * kMicrosecond;
};

// Physical page address.
struct PageAddress {
  int channel = 0;
  int chip = 0;          // within channel
  std::uint32_t block = 0;  // within chip
  std::uint32_t page = 0;   // within block

  friend bool operator==(const PageAddress&, const PageAddress&) = default;
};

// Flat index helpers ----------------------------------------------------

inline std::uint64_t ChipIndex(const Geometry& g, const PageAddress& a) {
  return static_cast<std::uint64_t>(a.channel) * g.chips_per_channel +
         a.chip;
}

inline std::uint64_t BlockIndex(const Geometry& g, const PageAddress& a) {
  return ChipIndex(g, a) * g.blocks_per_chip + a.block;
}

inline std::uint64_t PageIndex(const Geometry& g, const PageAddress& a) {
  return BlockIndex(g, a) * g.pages_per_block + a.page;
}

inline PageAddress AddressFromPageIndex(const Geometry& g,
                                        std::uint64_t page_index) {
  PageAddress a;
  a.page = static_cast<std::uint32_t>(page_index % g.pages_per_block);
  std::uint64_t rest = page_index / g.pages_per_block;
  a.block = static_cast<std::uint32_t>(rest % g.blocks_per_chip);
  rest /= g.blocks_per_chip;
  a.chip = static_cast<int>(rest % g.chips_per_channel);
  a.channel = static_cast<int>(rest / g.chips_per_channel);
  return a;
}

inline bool InBounds(const Geometry& g, const PageAddress& a) {
  return a.channel >= 0 && a.channel < g.channels && a.chip >= 0 &&
         a.chip < g.chips_per_channel && a.block < g.blocks_per_chip &&
         a.page < g.pages_per_block;
}

}  // namespace smartssd::flash

#endif  // SMARTSSD_FLASH_GEOMETRY_H_
