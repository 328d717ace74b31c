#ifndef SMARTSSD_STORAGE_ZONE_MAP_H_
#define SMARTSSD_STORAGE_ZONE_MAP_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "storage/catalog.h"

namespace smartssd::storage {

// Per-page min/max statistics ("zone maps") for every integer column of
// a table — the lightweight in-storage index the paper's discussion of
// storage-layout impact points toward. Built once after bulk load; a
// scan with a range predicate on a tracked column can then skip every
// page whose [min, max] cannot match.
//
// The structure is a few bytes per page per column, so it fits easily
// in device DRAM: pushdown programs prune their input extents with it
// (in-SSD indexing), and the host executor prunes its read requests —
// the same statistics serve both sides.
class ZoneMap {
 public:
  struct Range {
    std::int64_t min = 0;
    std::int64_t max = 0;
  };

  // Builds statistics by scanning the table's pages via `read_page`
  // (page indexes are table-relative).
  static Result<ZoneMap> Build(
      const TableInfo& info,
      const std::function<Result<std::span<const std::byte>>(
          std::uint64_t page_index)>& read_page);

  // True if page `page_index` (table-relative) may hold a row whose
  // `col` value lies in [lo, hi]. Untracked columns always may match.
  bool PageMayMatch(std::uint64_t page_index, int col, std::int64_t lo,
                    std::int64_t hi) const;

  // The tracked slot of column `col`, or -1 when `col` is untracked.
  int TrackedSlot(int col) const {
    return TracksColumn(col) ? column_slots_[static_cast<std::size_t>(col)]
                             : -1;
  }

  // The page's [min, max] for a tracked slot. The caller guarantees
  // `page_index` < pages() and `slot` from TrackedSlot(), so the lookup
  // cannot fail; an empty page reads min > max.
  const Range& SlotRange(std::uint64_t page_index, int slot) const {
    return ranges_[page_index * static_cast<std::uint64_t>(tracked_columns_) +
                   static_cast<std::uint64_t>(slot)];
  }

  // Widens page statistics from a fresh page image after a write.
  // Grows the map (with empty-page sentinels) when `page_index` is past
  // the last tracked page, so appends into reserved extent headroom are
  // covered. Widening is sound but lossy for in-place updates: ranges
  // only grow, so pruning stays correct while a full Build would be
  // tighter.
  Status WidenFromPage(const TableInfo& info, std::uint64_t page_index,
                       std::span<const std::byte> page);

  bool TracksColumn(int col) const;
  std::uint64_t pages() const { return pages_; }
  std::uint64_t memory_bytes() const {
    return ranges_.size() * sizeof(Range);
  }

 private:
  ZoneMap() = default;

  // Folds every row of `page` into the page's ranges (min/max widen).
  Status FoldPage(const TableInfo& info, std::uint64_t page_index,
                  std::span<const std::byte> page);

  std::uint64_t pages_ = 0;
  std::vector<int> column_slots_;  // schema col -> slot or -1
  int tracked_columns_ = 0;
  // ranges_[page * tracked_columns_ + slot]
  std::vector<Range> ranges_;
};

}  // namespace smartssd::storage

#endif  // SMARTSSD_STORAGE_ZONE_MAP_H_
