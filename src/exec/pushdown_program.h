#ifndef SMARTSSD_EXEC_PUSHDOWN_PROGRAM_H_
#define SMARTSSD_EXEC_PUSHDOWN_PROGRAM_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/cost_model.h"
#include "exec/hash_table.h"
#include "exec/hybrid_join.h"
#include "exec/page_processor.h"
#include "exec/predicate_range.h"
#include "exec/query_spec.h"
#include "smart/program.h"
#include "storage/zone_map.h"

namespace smartssd::exec {

// The operator code that gets "uploaded" into the Smart SSD (Section 3):
// an InSsdProgram that runs a bound query pipeline on the device. Its
// build phase (for joins) reads the inner table through the internal
// data path, its per-page work is charged to the embedded cores with the
// embedded cost parameters, and only result tuples leave the device.
//
// Joins run in one of two modes. When the estimated hash table fits the
// join memory budget (or no budget is set), the whole inner table is
// hashed in device DRAM — the paper's simple hash join. When a budget is
// set and the estimate exceeds it, the build switches to the hybrid hash
// join (exec/hybrid_join.h): partitions beyond the budget spill to flash
// through the device's internal write path and are probed in extra
// passes during Finish, trading spill I/O for a bounded DRAM grant.
class PushdownProgram final : public smart::InSsdProgram {
 public:
  // `zone_map` (optional) is the device-resident copy of the outer
  // table's per-page statistics: the program prunes its input extents
  // with it, so non-matching pages are never even read from flash —
  // in-SSD indexing. The map is an immutable snapshot that must outlive
  // the program; the surviving pages are computed from it once, here.
  //
  // `spill.budget_bytes` > 0 caps the resident build side of a join;
  // 0 keeps the unconstrained build. `spill_page_size_hint` sizes the
  // pre-OPEN DRAM estimate for the spill buffers (the join itself uses
  // the device's real page size).
  //
  // `first_page` / `page_count` restrict the program to a fragment of
  // the outer table's pages — the device half of a split scan. The
  // defaults cover the whole table, which is the monolithic behaviour:
  // extent announcement, pruning walk, and zone-check charge all stay
  // byte-identical to a program built without a fragment range. A
  // proper sub-range of the table is one of several fragments and, like
  // HostQueryTask, leaves its Finish() emission counts out of counts():
  // the fragments' merge charges the canonical finish once over the
  // merged result.
  explicit PushdownProgram(const BoundQuery* bound,
                           const storage::ZoneMap* zone_map = nullptr,
                           KernelMode kernel = KernelMode::kVectorized,
                           const HybridJoinConfig& spill = {},
                           std::uint32_t spill_page_size_hint = 8192,
                           std::uint64_t first_page = 0,
                           std::uint64_t page_count = ~0ull);

  std::string_view name() const override;

  Result<SimTime> Open(smart::DeviceServices& device,
                       SimTime ready) override;

  std::vector<smart::LpnRange> InputExtents() const override;

  Result<smart::ProgramCharge> ProcessPage(std::span<const std::byte> page,
                                           smart::ResultSink& sink) override;

  Result<smart::ProgramCharge> Finish(smart::ResultSink& sink) override;

  std::uint64_t DramBytesRequired() const override;

  // Total counts (without the Finish() emission on a proper sub-range).
  const OpCounts& counts() const { return counts_; }
  const std::vector<std::int64_t>& agg_state() const {
    return processor_->agg_state();
  }
  // Pages of the range the zone map pruned.
  std::uint64_t pages_skipped() const {
    return (scan_end_ - scan_begin_) - input_pages_.size();
  }

  // True when this program's join runs (or would run) the hybrid
  // spill path under the configured budget.
  bool hybrid_join_engaged() const;
  // Spill statistics; all-zero when the join stayed unconstrained.
  HybridJoinStats hybrid_stats() const {
    return hybrid_ != nullptr ? hybrid_->stats() : HybridJoinStats{};
  }
  // High-water mark of the program's actual DRAM use, to check against
  // the DramBytesRequired() grant (the session-leak audit's other half:
  // a grant that under-states real use defeats the accounting).
  std::uint64_t dram_peak_bytes() const { return dram_peak_; }

 private:
  std::uint64_t HashEntries() const {
    if (hybrid_ != nullptr) return hybrid_->resident_entries();
    return hash_table_.has_value() ? hash_table_->entries() : 0;
  }
  std::uint64_t OutputRowWidth() const;
  std::uint64_t SpillOverheadCycles() {
    return hybrid_ != nullptr ? hybrid_->TakeOverheadCycles() : 0;
  }
  void NotePeak();

  const BoundQuery* bound_;
  CpuCostParams outer_params_;
  const storage::ZoneMap* zone_map_;
  KernelMode kernel_;
  HybridJoinConfig spill_;
  std::uint32_t spill_page_size_hint_;
  std::map<int, ColumnRange> prune_ranges_;  // see PruneRanges
  // Fragment bounds over the outer table's page indices, clamped to the
  // table in the constructor. Monolithic programs cover [0, page_count).
  std::uint64_t scan_begin_ = 0;
  std::uint64_t scan_end_ = 0;
  bool partial_ = false;  // a proper sub-range of the table
  // The pages of [scan_begin_, scan_end_) the zone map cannot rule out,
  // in page order: what InputExtents() announces, so the session
  // protocol delivers exactly these — one ProcessPage() call per page.
  // Consumed one entry per delivery so each page can be tied back to
  // its zone-map entry for the batch-skip fast paths.
  std::vector<std::uint64_t> input_pages_;
  std::size_t next_input_page_ = 0;
  std::optional<JoinHashTable> hash_table_;
  std::unique_ptr<HybridJoin> hybrid_;
  std::unique_ptr<PageProcessor> processor_;
  OpCounts counts_;
  std::vector<std::byte> scratch_;
  std::uint64_t dram_peak_ = 0;
};

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_PUSHDOWN_PROGRAM_H_
