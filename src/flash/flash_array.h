#ifndef SMARTSSD_FLASH_FLASH_ARRAY_H_
#define SMARTSSD_FLASH_FLASH_ARRAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "common/units.h"
#include "flash/backing_store.h"
#include "flash/geometry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/rate_server.h"

namespace smartssd::flash {

// The read-retry ladder an uncorrectable read (an injected
// kUncorrectableRead) burns before the page is declared lost: this many
// threshold-adjusted re-senses, each paying tR plus the penalty and a
// second channel transfer.
inline constexpr std::uint32_t kMaxReadRetries = 3;
inline constexpr SimDuration kReadRetryPenalty = 100 * kMicrosecond;

// Per-block NAND state tracked by the array: pages within a block must be
// programmed in order, and a block must be erased before reuse.
struct BlockState {
  std::uint32_t write_pointer = 0;  // next programmable page in the block
  std::uint32_t erase_count = 0;
};

// The NAND flash array with its per-chip and per-channel timing model.
//
// A page read is a two-stage operation, as in a real device:
//   1. the chip senses the page into its internal register (tR); a chip
//      can run only one operation at a time (modelled as a RateServer per
//      chip), but different chips on a channel overlap (chip-level
//      interleaving);
//   2. the page is clocked over the channel bus to the controller, where
//      ECC is decoded; a channel carries one transfer at a time (a
//      RateServer per channel — channel-level interleaving happens across
//      channels).
//
// The third stage — DMA from the channel controller into the shared
// device DRAM — belongs to the SSD controller and lives in ssd::SsdDevice,
// because that shared bus is exactly the serialization bottleneck the
// paper calls out in Section 4.2.
class FlashArray {
 public:
  FlashArray(const Geometry& geometry, const Timings& timings);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(FlashArray);

  const Geometry& geometry() const { return geometry_; }
  const Timings& timings() const { return timings_; }
  BackingStore& store() { return store_; }
  const BackingStore& store() const { return store_; }

  // Installs a fault injector queried on every page read (charge point
  // for kUncorrectableRead). The array does not own the injector; pass
  // nullptr to detach. Injected uncorrectable reads burn the full
  // read-retry ladder on the virtual clock before failing, like a real
  // controller exhausting its threshold-adjusted retries.
  void set_fault_injector(sim::FaultInjector* injector) {
    fault_injector_ = injector;
  }

  // Puts each channel bus on its own trace lane ("flash chan N" under
  // `process`) and records ECC retries / uncorrectable pages as instant
  // events on the affected channel's lane. The 32 per-chip servers stay
  // untraced on purpose — channel occupancy is the paper's bottleneck
  // signal and per-chip lanes would drown the trace. nullptr detaches.
  void AttachTracer(obs::Tracer* tracer, std::string_view process);

  // Registers flash counters (reads, ECC retries, uncorrectables) and
  // the page read-latency histogram. nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  // Reads one page: data lands in `out` (if non-empty) and the returned
  // time is when the page is available at the channel controller, ready
  // for DMA. `ready` is when the request is issued.
  Result<SimTime> ReadPage(const PageAddress& addr, SimTime ready,
                           std::span<std::byte> out);

  // Zero-copy variant: timing only; use store().View() for the bytes.
  Result<SimTime> ReadPageTiming(const PageAddress& addr, SimTime ready);

  // Programs the next constraint-checked page. The page must be the
  // block's current write pointer (sequential-program rule) and the block
  // must not be full.
  Result<SimTime> ProgramPage(const PageAddress& addr,
                              std::span<const std::byte> data,
                              SimTime ready);

  // Erases a whole block; all its pages become readable-as-zero and
  // programmable again, and the store frees the block's page buffers.
  Result<SimTime> EraseBlock(int channel, int chip, std::uint32_t block,
                             SimTime ready);

  const BlockState& block_state(std::uint64_t block_index) const {
    return blocks_[block_index];
  }

  // Aggregate busy time across all channel buses (for utilization and
  // energy accounting).
  SimDuration total_channel_busy() const;
  SimDuration total_chip_busy() const;

  std::uint64_t reads() const { return reads_; }
  std::uint64_t programs() const { return programs_; }
  std::uint64_t erases() const { return erases_; }

  // Retry-ladder counters of injected uncorrectable reads.
  std::uint64_t read_retries() const { return read_retries_; }
  std::uint64_t uncorrectable_reads() const {
    return uncorrectable_reads_;
  }

  void ResetTiming();

 private:
  Status CheckAddress(const PageAddress& addr) const;

  Geometry geometry_;
  Timings timings_;
  sim::FaultInjector* fault_injector_ = nullptr;
  BackingStore store_;
  std::vector<BlockState> blocks_;
  // One server per chip (tR serialization) and per channel (bus).
  std::vector<std::unique_ptr<sim::RateServer>> chips_;
  std::vector<std::unique_ptr<sim::RateServer>> channels_;
  SimDuration page_transfer_time_ = 0;  // bus + ECC, precomputed
  std::uint64_t reads_ = 0;
  std::uint64_t programs_ = 0;
  std::uint64_t erases_ = 0;
  std::uint64_t read_retries_ = 0;
  std::uint64_t uncorrectable_reads_ = 0;
  obs::Counter* m_reads_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_uncorrectable_ = nullptr;
  obs::Histogram* m_read_latency_ = nullptr;
};

}  // namespace smartssd::flash

#endif  // SMARTSSD_FLASH_FLASH_ARRAY_H_
