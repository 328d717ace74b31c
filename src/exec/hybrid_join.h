#ifndef SMARTSSD_EXEC_HYBRID_JOIN_H_
#define SMARTSSD_EXEC_HYBRID_JOIN_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "exec/cost_model.h"
#include "exec/hash_table.h"
#include "exec/query_spec.h"
#include "expr/row_view.h"
#include "smart/program.h"

namespace smartssd::exec {

// Memory-constrained hybrid hash join for the in-SSD pushdown path.
//
// The paper's join assumes the build side fits the session's device-DRAM
// grant; this class turns that cliff into a curve (after "Design
// Trade-offs for a Robust Dynamic Hybrid Hash Join", PAPERS.md). The
// inner table is hashed into kFanout partitions by a level-salted
// rehash of the join key. Partitions stay resident while the projected
// hash-table footprint fits `budget_bytes`; when it would not, the
// largest resident partition is evicted to flash through the device's
// real spill write path (DMA + out-of-place FTL program, visible to GC,
// trimmed back at session close). Probing then classifies each outer
// tuple: resident partitions probe immediately; spilled partitions defer
// the tuple, materializing it into the partition's probe file. A
// space-saving sketch spots heavy-hitter probe keys (JSPIM-style skew
// handling) and pins their build rows resident so a skewed key stops
// paying the spill path. At Finish, each spilled partition is resolved:
// build its table if it now fits, else recursively re-partition both
// files with the next level's salt, bounded by kMaxDepth (beyond it
// the join fails with RESOURCE_EXHAUSTED and the engine falls back to
// the host, byte-identically).
//
// Count discipline: the differential harness holds OpCounts totals
// byte-identical to the unconstrained join, so every logical operation
// is charged exactly once no matter where it lands —
//   * inner pages, tuples + key/payload column reads: at the build
//     scan, by WalkBuildPage (the simple join's build walk);
//   * hash_inserts: when a row actually enters a hash table (resident at
//     FinishBuild, spilled at its resolve level — re-splits recharge
//     nothing);
//   * FK column read: at the outer scan, for every tuple reaching the
//     probe stage;
//   * probes: when the probe actually happens (scan for resident/hot,
//     resolve for deferred) — once per tuple either way.
// All spill overhead (record formatting, page flushes, merges, hot-key
// fetches) is charged as embedded cycles and spill I/O, never OpCounts.
//
// Order discipline: projection and top-N output must be byte-identical
// to the unconstrained scan order, but deferred matches surface in
// partition order. When anything spilled and the query is
// order-sensitive, every confirmed match (scan-time and resolved) is
// staged as (seq, outer row, payload) and replayed in seq order — seq
// being the tuple's position in the outer scan. Aggregates fold
// commutatively, so they sink matches the moment they are found.
struct HybridJoinConfig {
  std::uint64_t budget_bytes = 0;  // resident build-side budget (> 0)
};

struct HybridJoinStats {
  std::uint32_t partitions_spilled = 0;
  std::uint32_t passes = 1;  // 1 = fully resident, 2 = one spill pass...
  std::uint64_t build_rows_spilled = 0;
  std::uint64_t probe_rows_spilled = 0;
  std::uint64_t spill_pages_written = 0;
  std::uint64_t spill_pages_read = 0;
  std::uint64_t hot_keys_pinned = 0;
  std::uint64_t hot_hits = 0;
};

class HybridJoin {
 public:
  static constexpr std::uint32_t kFanout = 4;    // partitions per level
  static constexpr std::uint32_t kMaxDepth = 4;  // re-partitioning bound
  static constexpr std::uint32_t kHotKeyCapacity = 8;    // pinned keys
  static constexpr std::uint32_t kHotKeyThreshold = 32;  // sightings to pin
  static_assert(kFanout > 1 && std::has_single_bit(kFanout),
                "partition choice takes the hash's top log2(kFanout) bits");

  HybridJoin(const BoundQuery* bound, smart::DeviceServices* device,
             const HybridJoinConfig& config);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(HybridJoin);

  // --- build phase (inner scan, during OPEN) -------------------------
  // Walks the page with WalkBuildPage, the walk JoinHashTableBuilder
  // uses, so build_counts() gets the same pages, tuples and key +
  // payload column reads; hash_inserts land when rows actually enter a
  // table.
  Status AddBuildPage(std::span<const std::byte> page);
  // Seals the build side: spilled build files flush their tails, the
  // resident partitions' rows enter the resident hash table.
  Status FinishBuild();
  const OpCounts& build_counts() const { return build_counts_; }

  bool any_spilled() const { return stats_.partitions_spilled > 0; }
  // Projection/top-N with spilling must stage matches and replay them in
  // scan order; aggregates never need to.
  bool ordered() const {
    return bound_->spec->aggregates.empty() && any_spilled();
  }

  // --- probe phase (outer scan) --------------------------------------
  struct ProbeResult {
    bool deferred = false;               // tuple spilled; resolve later
    const std::byte* payload = nullptr;  // probe hit (when !deferred)
    std::uint64_t seq = 0;               // scan-order position
  };
  // The caller has read (and charged) the FK of `outer`. Resident/hot
  // keys probe now (charging counts->probes); spilled partitions copy
  // the outer row, as an NSM record, into the partition's probe file.
  Result<ProbeResult> Probe(std::int64_t key, const expr::RowView& outer,
                            OpCounts* counts);

  // Stages a confirmed match for ordered replay (ordered() mode only).
  // The outer row and payload are copied into the staging arena.
  void BufferMatch(std::uint64_t seq, const expr::RowView& outer,
                   const std::byte* payload);

  // --- resolve (multi-pass probing, during Finish) -------------------
  // Resolves every spilled partition, invoking `deliver` for each match
  // (seq, the materialized outer row, payload). The view and payload
  // are valid only for the duration of the callback.
  using Deliver = std::function<Status(
      std::uint64_t seq, const expr::RowView& outer,
      const std::byte* payload)>;
  Status Resolve(OpCounts* counts, const Deliver& deliver);

  // Replays the staged matches in scan order (after Resolve).
  using Replay = std::function<Status(const expr::RowView& outer,
                                      const std::byte* payload)>;
  Status ReplayOrdered(const Replay& replay);

  const HybridJoinStats& stats() const { return stats_; }
  // Entries in the resident table (probe-cost tier for the cycle model).
  std::uint64_t resident_entries() const {
    return resident_table_.has_value() ? resident_table_->entries() : 0;
  }
  // Embedded cycles accrued by spill bookkeeping since the last drain.
  std::uint64_t TakeOverheadCycles() {
    const std::uint64_t c = overhead_cycles_;
    overhead_cycles_ = 0;
    return c;
  }
  // High-water mark of the join's modeled DRAM footprint (resident rows
  // or table, partition page buffers, hot table, staging arena) — what
  // the session grant must cover.
  std::uint64_t dram_peak_bytes() const { return dram_peak_; }

 private:
  // A spill-backed sequence of fixed-width records. Full pages flush as
  // they fill; the tail flushes at seal. Pages come from the device's
  // spill extent allocator in small chunks.
  struct PageFile {
    std::vector<std::uint64_t> lpns;
    std::uint64_t pages_used = 0;  // pages flushed so far
    std::uint64_t records = 0;
    std::vector<std::byte> buffer;  // current partial page
  };
  struct Partition {
    bool resident = true;
    std::uint64_t build_rows = 0;
    std::vector<std::byte> rows;  // resident build records
    PageFile build_file;
    PageFile probe_file;
  };
  struct Match {
    std::uint64_t seq = 0;
    std::uint64_t offset = 0;  // into match_arena_
  };

  std::uint32_t PartitionOf(std::int64_t key, std::uint32_t level) const;
  Status AddBuildRow(std::int64_t key,
                     std::span<const std::byte> payload);
  Status EvictLargestResident();
  Status AppendRecord(PageFile* file, std::span<const std::byte> record);
  Status FlushPage(PageFile* file);
  Status SealFile(PageFile* file) { return FlushPage(file); }
  // Streams a sealed file's records through `fn`. Each page is copied
  // into a local buffer first: spill writes issued from inside `fn`
  // (child partitions, GC relocations) may move the viewed flash page.
  Status ForEachRecord(const PageFile& file, std::uint32_t width,
                       const std::function<Status(const std::byte*)>& fn);
  Status ResolveFiles(PageFile build, PageFile probe, std::uint32_t level,
                      OpCounts* counts, const Deliver& deliver);
  std::uint64_t SketchBump(std::int64_t key);
  Status Promote(std::int64_t key, Partition& partition);
  const std::byte* HotPayload(
      const std::optional<std::vector<std::byte>>& entry) const;
  void NotePeak(std::uint64_t extra);

  const BoundQuery* bound_;
  smart::DeviceServices* device_;
  HybridJoinConfig config_;
  std::uint32_t page_size_;
  std::uint32_t build_rec_width_;   // 8-byte key + payload
  std::uint32_t probe_rec_width_;   // 8-byte seq + outer row
  std::uint32_t outer_row_width_;

  OpCounts build_counts_;
  HybridJoinStats stats_;
  std::vector<Partition> partitions_;
  std::uint64_t resident_rows_total_ = 0;
  std::optional<JoinHashTable> resident_table_;
  bool build_finished_ = false;

  std::uint64_t next_seq_ = 0;

  // Skew handling: a space-saving sketch over probe keys, up to
  // kHotKeyCapacity (key, count) pairs; pinned heavy hitters carry their
  // build payload (or confirmed absence) resident.
  struct SketchEntry {
    std::int64_t key = 0;
    std::uint64_t count = 0;
  };
  std::array<SketchEntry, kHotKeyCapacity> sketch_{};
  std::uint32_t sketch_size_ = 0;
  std::map<std::int64_t, std::optional<std::vector<std::byte>>> hot_;

  // Ordered staging: (seq, outer row bytes ++ payload bytes).
  std::vector<Match> matches_;
  std::vector<std::byte> match_arena_;

  std::vector<std::byte> record_;    // one spilled build or probe record
  std::vector<std::byte> read_buf_;  // stable copy of one spill page
  std::uint64_t overhead_cycles_ = 0;
  std::uint64_t dram_peak_ = 0;
};

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_HYBRID_JOIN_H_
