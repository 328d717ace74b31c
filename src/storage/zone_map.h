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
//
// Whoever writes a page image refolds that page from it (RefoldPage),
// so the map stays exact under writes. Building and refolding read a
// page one tracked column at a time over storage::PageColumns, so the
// page layout stays inside storage's codec and each column is one
// tight loop over its values.
class ZoneMap {
 public:
  struct Range {
    std::int64_t min = 0;
    std::int64_t max = 0;
    bool operator==(const Range&) const = default;
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

  // Sets page `page_index`'s ranges to the [min, max] of the rows of
  // its new image `page`, so a range may narrow; an empty page reads
  // min > max. A page past the end grows the map, so appends into
  // reserved extent headroom are covered. `records` is the caller's
  // NSM gather buffer (PageColumns::Open).
  Status RefoldPage(const TableInfo& info, std::uint64_t page_index,
                    std::span<const std::byte> page,
                    std::vector<const std::byte*>* records);

  bool TracksColumn(int col) const;
  std::uint64_t pages() const { return pages_; }
  std::uint64_t memory_bytes() const {
    return ranges_.size() * sizeof(Range);
  }

 private:
  ZoneMap() = default;

  std::uint64_t pages_ = 0;
  std::vector<int> column_slots_;  // schema col -> slot or -1
  int tracked_columns_ = 0;
  // ranges_[page * tracked_columns_ + slot]
  std::vector<Range> ranges_;
};

}  // namespace smartssd::storage

#endif  // SMARTSSD_STORAGE_ZONE_MAP_H_
