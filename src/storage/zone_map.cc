#include "storage/zone_map.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "storage/page_codec.h"

namespace smartssd::storage {

namespace {

// What an empty page reads: no value lies in [min, max].
constexpr ZoneMap::Range kEmptyRange{std::numeric_limits<std::int64_t>::max(),
                                     std::numeric_limits<std::int64_t>::min()};

// Widens `range` by the first `n` values of one column, read as T (the
// column's INT32 or INT64 width), with the address shape (strided or
// indirect) resolved once rather than per row.
template <typename T>
void FoldColumn(const ColumnAddress& column, std::uint16_t n,
                ZoneMap::Range* range) {
  std::int64_t lo = range->min;
  std::int64_t hi = range->max;
  auto fold = [&lo, &hi](const std::byte* bytes) {
    T v;
    std::memcpy(&v, bytes, sizeof(v));
    lo = std::min<std::int64_t>(lo, v);
    hi = std::max<std::int64_t>(hi, v);
  };
  if (column.base != nullptr) {
    for (std::uint16_t i = 0; i < n; ++i) {
      fold(column.base + static_cast<std::size_t>(i) * column.stride);
    }
  } else {
    for (std::uint16_t i = 0; i < n; ++i) {
      fold(column.row_ptrs[i] + column.offset);
    }
  }
  range->min = lo;
  range->max = hi;
}

}  // namespace

Result<ZoneMap> ZoneMap::Build(
    const TableInfo& info,
    const std::function<Result<std::span<const std::byte>>(
        std::uint64_t page_index)>& read_page) {
  ZoneMap map;
  map.pages_ = info.page_count;
  const Schema& schema = info.schema;
  map.column_slots_.assign(static_cast<std::size_t>(schema.num_columns()),
                           -1);
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == ColumnType::kInt32 ||
        schema.column(c).type == ColumnType::kInt64) {
      map.column_slots_[static_cast<std::size_t>(c)] =
          map.tracked_columns_++;
    }
  }
  map.ranges_.assign(static_cast<std::size_t>(info.page_count) *
                         static_cast<std::size_t>(map.tracked_columns_),
                     kEmptyRange);

  std::vector<const std::byte*> records;
  for (std::uint64_t p = 0; p < info.page_count; ++p) {
    SMARTSSD_ASSIGN_OR_RETURN(std::span<const std::byte> page,
                              read_page(p));
    SMARTSSD_RETURN_IF_ERROR(map.RefoldPage(info, p, page, &records));
  }
  return map;
}

// One tracked column at a time through PageColumns: a PAX minipage is
// read in place, NSM records are located by the page's one slot walk,
// and the INT32/INT64 choice is made once per column, outside the row
// loop.
Status ZoneMap::RefoldPage(const TableInfo& info, std::uint64_t page_index,
                           std::span<const std::byte> page,
                           std::vector<const std::byte*>* records) {
  const Schema& schema = info.schema;
  SMARTSSD_ASSIGN_OR_RETURN(
      const PageColumns columns,
      PageColumns::Open(&schema, info.layout, page, records));
  if (page_index >= pages_) {
    pages_ = page_index + 1;
    ranges_.resize(static_cast<std::size_t>(pages_) *
                       static_cast<std::size_t>(tracked_columns_),
                   kEmptyRange);
  }
  Range* page_ranges =
      ranges_.data() +
      page_index * static_cast<std::uint64_t>(tracked_columns_);
  std::fill(page_ranges, page_ranges + tracked_columns_, kEmptyRange);
  const std::uint16_t n = columns.tuple_count();
  if (n == 0) return Status::OK();
  for (int c = 0; c < schema.num_columns(); ++c) {
    const int slot = column_slots_[static_cast<std::size_t>(c)];
    if (slot < 0) continue;
    if (schema.column(c).type == ColumnType::kInt32) {
      FoldColumn<std::int32_t>(columns.column(c), n, &page_ranges[slot]);
    } else {
      FoldColumn<std::int64_t>(columns.column(c), n, &page_ranges[slot]);
    }
  }
  return Status::OK();
}

bool ZoneMap::TracksColumn(int col) const {
  return col >= 0 &&
         col < static_cast<int>(column_slots_.size()) &&
         column_slots_[static_cast<std::size_t>(col)] >= 0;
}

bool ZoneMap::PageMayMatch(std::uint64_t page_index, int col,
                           std::int64_t lo, std::int64_t hi) const {
  if (lo > hi) return false;  // empty query interval: no value lies in it
  if (!TracksColumn(col) || page_index >= pages_) return true;
  const Range& range = SlotRange(
      page_index, column_slots_[static_cast<std::size_t>(col)]);
  if (range.min > range.max) return false;  // empty page
  return range.max >= lo && range.min <= hi;
}

}  // namespace smartssd::storage
