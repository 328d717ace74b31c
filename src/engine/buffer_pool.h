#ifndef SMARTSSD_ENGINE_BUFFER_POOL_H_
#define SMARTSSD_ENGINE_BUFFER_POOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "ssd/block_device.h"

namespace smartssd::engine {

// DBMS buffer pool over one block device: fixed frame count, clock
// eviction, sequential-scan readahead in 32-page commands (the paper's
// 256 KB I/Os). All timing flows through the device's virtual clock.
//
// The pool matters to the paper beyond performance: Section 4.3's
// pushdown rules hinge on it. A page that is *dirty* in the pool makes
// pushdown incorrect (the device would see stale bytes); a range that is
// mostly *cached* makes pushdown pointless. The planner asks this class
// both questions.
class BufferPool {
 public:
  static constexpr std::uint32_t kReadAheadPages = 32;

  BufferPool(ssd::BlockDevice* device, std::uint64_t capacity_pages);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(BufferPool);

  // Returns the page contents and the virtual time they are available.
  // On a miss, reads up to kReadAheadPages pages (bounded by `limit_lpn`,
  // exclusive) in one command and caches them all. The returned span is
  // valid until the next pool operation.
  Result<std::pair<std::span<const std::byte>, SimTime>> GetPage(
      std::uint64_t lpn, SimTime ready, std::uint64_t limit_lpn);

  // Overwrites a cached page's contents in memory, marking it dirty.
  // Caches the page first (reading it at `ready`) if absent.
  Result<SimTime> WritePage(std::uint64_t lpn,
                            std::span<const std::byte> data, SimTime ready);

  // Writes every dirty page back to the device; returns completion time.
  Result<SimTime> FlushAll(SimTime ready);

  // Writes one dirty page back (no-op if the page is clean or absent);
  // returns completion time. This is the unit of work a resumable ingest
  // task's flush phase charges per step.
  Result<SimTime> FlushPage(std::uint64_t lpn, SimTime ready);

  // Lowest dirty LPN in [first_lpn, first_lpn + count), if any. Min-LPN
  // order makes incremental flushing deterministic regardless of frame
  // placement.
  std::optional<std::uint64_t> NextDirtyInRange(std::uint64_t first_lpn,
                                                std::uint64_t count) const;

  bool IsCached(std::uint64_t lpn) const;
  // The cached bytes of `lpn`, or an empty span when it is not
  // resident. Touches neither the clock nor the hit counters.
  std::span<const std::byte> CachedPage(std::uint64_t lpn) const;
  bool IsDirty(std::uint64_t lpn) const;
  bool HasDirtyInRange(std::uint64_t first_lpn, std::uint64_t count) const;
  std::uint64_t CachedInRange(std::uint64_t first_lpn,
                              std::uint64_t count) const;

  // Drops everything (cold-run reset). Dirty pages must be flushed
  // first; dropping them is a programmer error.
  void Clear();

  std::uint64_t capacity_pages() const { return frames_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  // Registers hit/miss/eviction counters. nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* metrics);

 private:
  struct Frame {
    std::uint64_t lpn = 0;
    bool valid = false;
    bool dirty = false;
    bool referenced = false;
    // When the frame's contents became available (its install I/O's
    // completion): a hit on a readahead-installed page cannot be consumed
    // before the batch that brought it in has finished.
    SimTime available_at = 0;
    std::vector<std::byte> data;
  };

  // One entry of the lpn -> frame index; frame == kNoFrame when empty.
  static constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};
  struct IndexSlot {
    std::uint64_t lpn = 0;
    std::uint32_t frame = kNoFrame;
  };

  // Picks a victim frame with the clock algorithm, flushing it if dirty.
  // `pending` holds the pages from `pending_lpn` on that a range install
  // has read but not yet placed: a dirty victim among them copies its
  // bytes there, so the install places what it just wrote back rather
  // than what the read returned before.
  Result<std::size_t> Evict(SimTime ready, SimTime* io_done,
                            std::uint64_t pending_lpn,
                            std::span<std::byte> pending);
  Result<SimTime> InstallRange(std::uint64_t lpn, std::uint32_t count,
                               SimTime ready);

  // The lpn -> frame index: open addressing with linear probing over a
  // power-of-two table of at least twice the frames, sized once in the
  // constructor, so a miss or an eviction allocates nothing. Erasing
  // shifts the rest of the probe run back instead of leaving a
  // tombstone.
  std::size_t HomeSlot(std::uint64_t lpn) const;
  // The frame caching `lpn`, or nullptr.
  Frame* FindFrame(std::uint64_t lpn);
  const Frame* FindFrame(std::uint64_t lpn) const;
  void IndexInsert(std::uint64_t lpn, std::uint32_t frame);
  void IndexErase(std::uint64_t lpn);

  ssd::BlockDevice* device_;
  std::vector<Frame> frames_;
  std::vector<IndexSlot> index_;
  int index_shift_ = 0;  // 64 - log2(index_.size())
  std::size_t clock_hand_ = 0;
  std::vector<std::byte> io_buffer_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_BUFFER_POOL_H_
