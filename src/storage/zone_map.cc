#include "storage/zone_map.h"

#include <algorithm>
#include <limits>

#include "storage/page_codec.h"
#include "storage/tuple.h"

namespace smartssd::storage {

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
  map.ranges_.assign(
      static_cast<std::size_t>(info.page_count) *
          static_cast<std::size_t>(map.tracked_columns_),
      Range{std::numeric_limits<std::int64_t>::max(),
            std::numeric_limits<std::int64_t>::min()});

  for (std::uint64_t p = 0; p < info.page_count; ++p) {
    SMARTSSD_ASSIGN_OR_RETURN(std::span<const std::byte> page,
                              read_page(p));
    SMARTSSD_RETURN_IF_ERROR(map.FoldPage(info, p, page));
  }
  return map;
}

Status ZoneMap::FoldPage(const TableInfo& info, std::uint64_t page_index,
                         std::span<const std::byte> page) {
  const Schema& schema = info.schema;
  SMARTSSD_ASSIGN_OR_RETURN(const PageRows rows,
                            PageRows::Open(&schema, info.layout, page));
  Range* page_ranges =
      ranges_.data() +
      page_index * static_cast<std::uint64_t>(tracked_columns_);
  // Column at a time, so a tracked column's type is looked up once per
  // page and its running range stays in registers.
  for (int c = 0; c < schema.num_columns(); ++c) {
    const int slot = column_slots_[static_cast<std::size_t>(c)];
    if (slot < 0) continue;
    const Column& column = schema.column(c);
    Range range = page_ranges[slot];
    for (std::uint16_t i = 0; i < rows.tuple_count(); ++i) {
      const std::int64_t v = DecodeInt(column, rows.column(rows.row(i), c));
      range.min = std::min(range.min, v);
      range.max = std::max(range.max, v);
    }
    page_ranges[slot] = range;
  }
  return Status::OK();
}

Status ZoneMap::WidenFromPage(const TableInfo& info,
                              std::uint64_t page_index,
                              std::span<const std::byte> page) {
  if (page_index >= pages_) {
    pages_ = page_index + 1;
    ranges_.resize(
        static_cast<std::size_t>(pages_) *
            static_cast<std::size_t>(tracked_columns_),
        Range{std::numeric_limits<std::int64_t>::max(),
              std::numeric_limits<std::int64_t>::min()});
  }
  return FoldPage(info, page_index, page);
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
