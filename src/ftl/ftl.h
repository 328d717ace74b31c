#ifndef SMARTSSD_FTL_FTL_H_
#define SMARTSSD_FTL_FTL_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/chunked_table.h"
#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "common/units.h"
#include "flash/flash_array.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smartssd::ftl {

struct FtlConfig {
  // Fraction of physical capacity hidden from the host (over-provisioning).
  double over_provisioning = 0.125;
  // Garbage collection starts when a chip's free-block count drops to this.
  std::uint32_t gc_low_watermark_blocks = 2;
  // Firmware lookup/dispatch overhead charged per host command.
  SimDuration command_overhead = 2 * kMicrosecond;
};

// What garbage collection sees of one candidate block (chip-relative).
// The FTL only offers non-active, non-free blocks as candidates.
struct GcBlockView {
  std::uint32_t block = 0;        // chip-relative block index
  std::uint32_t valid_pages = 0;  // pages GC would have to relocate
  std::uint32_t erase_count = 0;  // wear
};

inline constexpr std::uint32_t kNoGcVictim = ~0U;

// Greedy victim selection: the block with the fewest valid pages, ties
// broken toward fewer erases, then the lower block index, so the choice
// is a total order. Returns the victim's chip-relative block index, or
// kNoGcVictim when `candidates` is empty.
std::uint32_t SelectGcVictim(std::span<const GcBlockView> candidates);

struct FtlStats {
  std::uint64_t host_writes = 0;       // pages written by the host
  std::uint64_t gc_relocations = 0;    // pages moved by GC
  std::uint64_t gc_runs = 0;
  std::uint64_t block_erases = 0;
  std::uint64_t host_reads = 0;
  std::uint64_t unmapped_reads = 0;

  double write_amplification() const {
    if (host_writes == 0) return 1.0;
    return static_cast<double>(host_writes + gc_relocations) /
           static_cast<double>(host_writes);
  }
};

// Page-level Flash Translation Layer. Maps logical page numbers (LPNs) to
// physical pages, stripes consecutive writes across channels (which is
// what gives sequential scans their channel-level parallelism), and runs
// greedy garbage collection per chip (SelectGcVictim).
//
// The FTL is the firmware component the paper's Section 2 describes as
// running on the embedded processors; its command overhead is charged on
// the virtual clock but is negligible next to page transfer times, as in
// the real device.
class Ftl {
 public:
  // Entries per chunk (4 KiB) of the logical-to-physical and
  // physical-to-logical maps. A chunk is allocated at its first write,
  // so host memory follows the pages written, not the drive's capacity.
  static constexpr std::uint64_t kMapChunkEntries = 512;

  Ftl(flash::FlashArray* array, const FtlConfig& config);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(Ftl);

  std::uint64_t logical_pages() const { return logical_pages_; }
  std::uint32_t page_size() const {
    return array_->geometry().page_size_bytes;
  }

  // Writes one logical page. Returns the completion time of the program
  // operation (plus any GC work it triggered).
  Result<SimTime> Write(std::uint64_t lpn, std::span<const std::byte> data,
                        SimTime ready);

  // Reads one logical page into `out`. An unmapped LPN reads as zeros and
  // costs only the command overhead (served from the mapping table, no
  // flash operation). Returns the time the data is at the channel
  // controller, ready for DMA into device DRAM.
  Result<SimTime> Read(std::uint64_t lpn, std::span<std::byte> out,
                       SimTime ready);

  // Timing-only read; pair with View() for zero-copy access to the bytes.
  Result<SimTime> ReadTiming(std::uint64_t lpn, SimTime ready);

  // Zero-copy view of a mapped logical page; empty span if unmapped.
  std::span<const std::byte> View(std::uint64_t lpn) const;

  bool IsMapped(std::uint64_t lpn) const;

  // Invalidates a logical page (TRIM).
  Status Trim(std::uint64_t lpn);

  const FtlStats& stats() const { return stats_; }
  const FtlConfig& config() const { return config_; }

  // Records each GC run as a span on an "ftl gc" lane under `process`
  // (args: relocated pages, victim valid count, erases, policy).
  // nullptr detaches.
  void AttachTracer(obs::Tracer* tracer, std::string_view process);

  // Registers the GC counters, the per-run pause histogram
  // (ftl.gc_pause_ns), the free-block gauge, and the write-amplification
  // gauge (in thousandths: 1000 = no amplification).
  void AttachMetrics(obs::MetricsRegistry* metrics);

  // Highest block-erase count across the array (wear ceiling).
  std::uint32_t max_erase_count() const;
  // Lowest block-erase count across the array; together with
  // max_erase_count() this bounds the wear spread the wear-aware
  // allocator maintains.
  std::uint32_t min_erase_count() const;
  // Blocks currently on some chip's free list (excludes active blocks).
  std::uint64_t free_blocks() const;

 private:
  static constexpr std::uint64_t kUnmapped = ~0ULL;

  struct ChipCursor {
    // Blocks not yet allocated for writing, in allocation order.
    std::deque<std::uint32_t> free_blocks;
    // Block currently receiving programs, or kNoBlock.
    std::uint32_t active_block = kNoBlock;
    static constexpr std::uint32_t kNoBlock = ~0U;
  };

  // Picks the next physical page to program, advancing the global stripe
  // cursor. May trigger GC on the chosen chip. Returns the physical page
  // index, with `*gc_done` >= ready reflecting any GC delay.
  Result<std::uint64_t> AllocatePage(SimTime ready, SimTime* gc_done);
  Result<SimTime> MaybeCollect(int channel, int chip, SimTime ready);
  // Marks a physical page stale. Inconsistent validity accounting is
  // surfaced as CORRUPTION (it means the map and flash disagree), not a
  // process abort — injected faults must be able to flow past it.
  Status Invalidate(std::uint64_t ppn);

  // Refreshes the free-block and write-amplification gauges (no-op when
  // no registry is attached).
  void UpdateGauges();

  flash::FlashArray* array_;
  FtlConfig config_;
  std::uint64_t logical_pages_;

  // Both maps are chunked, and an entry never written reads kUnmapped.
  // Spill extents take LPNs from the top of the logical range and the
  // catalog from the bottom, so a dense map grown on demand would still
  // span the whole range.
  ChunkedTable<std::uint64_t> l2p_;  // lpn -> ppn or kUnmapped
  ChunkedTable<std::uint64_t> p2l_;  // ppn -> lpn or kUnmapped
  std::vector<bool> valid_;         // per physical page
  std::vector<std::uint32_t> valid_per_block_;

  std::vector<ChipCursor> cursors_;  // per chip (flat index)
  std::uint64_t stripe_cursor_ = 0;  // round-robin over chips
  bool in_gc_ = false;               // guards against recursive GC

  FtlStats stats_;
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
  obs::Counter* m_gc_runs_ = nullptr;
  obs::Counter* m_gc_relocations_ = nullptr;
  obs::Histogram* m_gc_pause_ = nullptr;
  obs::Gauge* m_free_blocks_ = nullptr;
  obs::Gauge* m_write_amp_ = nullptr;
};

}  // namespace smartssd::ftl

#endif  // SMARTSSD_FTL_FTL_H_
