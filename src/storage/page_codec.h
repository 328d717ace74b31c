#ifndef SMARTSSD_STORAGE_PAGE_CODEC_H_
#define SMARTSSD_STORAGE_PAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/result.h"
#include "storage/nsm_page.h"
#include "storage/pax_page.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace smartssd::storage {

// The one page codec: PageRows reads the rows of a page image one row
// at a time, PageColumns hands out its columns for column-at-a-time
// code, and PageBuilder packs records into a page, in either layout.
// The formats themselves are NsmPage* and PaxPage*, and nothing outside
// storage/ reads them directly: these three classes are where the page
// layout still shows.

// Rows a page of `page_size` bytes holds in `layout`; 0 when a record
// does not fit.
std::uint32_t PageCapacity(const Schema& schema, PageLayout layout,
                           std::uint32_t page_size);

// The rows of one page image. Open validates the page once (a zeroed,
// never-written page opens with no rows); the column bytes it hands out
// point into the page.
class PageRows {
 public:
  static Result<PageRows> Open(const Schema* schema, PageLayout layout,
                               std::span<const std::byte> page);

  const Schema& schema() const { return *schema_; }
  std::uint16_t tuple_count() const { return count_; }

  // A row located once, so reading its columns does not look it up
  // again: an NSM row's record (its slot is read here), or a PAX row's
  // index into the minipages.
  struct Row {
    const std::byte* record = nullptr;  // NSM only
    std::uint16_t index = 0;
  };
  Row row(std::uint16_t i) const {
    const auto* nsm = std::get_if<NsmPageReader>(&reader_);
    return {nsm != nullptr ? nsm->tuple(i) : nullptr, i};
  }

  // The bytes of column `col` of a row, at the column's width.
  const std::byte* column(Row row, int col) const {
    if (row.record != nullptr) return row.record + schema_->offset(col);
    return std::get_if<PaxPageReader>(&reader_)->value(row.index, col);
  }

 private:
  using Reader = std::variant<NsmPageReader, PaxPageReader>;
  PageRows(const Schema* schema, Reader reader, std::uint16_t count)
      : schema_(schema), reader_(reader), count_(count) {}

  const Schema* schema_;
  Reader reader_;
  std::uint16_t count_;
};

// Where one column's values lie on a page. Two shapes: strided, value i
// at base + i * stride (a PAX minipage, read in place), or indirect,
// value i at row_ptrs[i] + offset (NSM records located once per page,
// or any other array of records).
struct ColumnAddress {
  const std::byte* base = nullptr;
  std::size_t stride = 0;
  const std::byte* const* row_ptrs = nullptr;
  std::uint32_t offset = 0;

  const std::byte* at(std::uint32_t row) const {
    return base != nullptr
               ? base + static_cast<std::size_t>(row) * stride
               : row_ptrs[row] + offset;
  }
};

// The columns of one page image, for code that reads a column at a
// time: the batch kernel, the update filter and the zone-map fold. Open
// validates the page as PageRows::Open does and locates its rows in
// the same pass. A PAX page's columns are its minipages, used in place;
// an NSM page's record pointers are stored by the one slot-directory
// walk that validates them (NsmPageReader::Open), into a buffer the
// caller owns, so a caller that keeps its buffer allocates nothing once
// the buffer has held its largest page.
//
// Defined here, since the batch kernel calls them once per page and
// per column.
class PageColumns {
 public:
  // An NSM page writes every row's record pointer to `*records`, which
  // grows to tuple_count() entries, never shrinks, and must outlive the
  // addresses column() returns; a PAX page leaves it alone.
  static Result<PageColumns> Open(const Schema* schema, PageLayout layout,
                                  std::span<const std::byte> page,
                                  std::vector<const std::byte*>* records) {
    if (layout == PageLayout::kNsm) {
      SMARTSSD_ASSIGN_OR_RETURN(const NsmPageReader reader,
                                NsmPageReader::Open(schema, page, records));
      return PageColumns(schema, reader.tuple_count(), records->data(),
                         std::nullopt);
    }
    SMARTSSD_ASSIGN_OR_RETURN(const PaxPageReader reader,
                              PaxPageReader::Open(schema, page));
    return PageColumns(schema, reader.tuple_count(), nullptr, reader);
  }

  std::uint16_t tuple_count() const { return count_; }

  // Row `i`'s NSM record, or nullptr on a PAX page.
  const std::byte* record(std::uint16_t i) const {
    return records_ != nullptr ? records_[i] : nullptr;
  }

  // Where column `col`'s values lie; only on a page with rows.
  ColumnAddress column(int col) const {
    if (pax_.has_value()) {
      return {.base = pax_->column_data(col),
              .stride = schema_->column(col).width};
    }
    return {.row_ptrs = records_, .offset = schema_->offset(col)};
  }

 private:
  PageColumns(const Schema* schema, std::uint16_t count,
              const std::byte* const* records,
              std::optional<PaxPageReader> pax)
      : schema_(schema), count_(count), records_(records), pax_(pax) {}

  const Schema* schema_;
  std::uint16_t count_;
  const std::byte* const* records_;    // NSM: the caller's gather buffer
  std::optional<PaxPageReader> pax_;   // PAX: the minipage directory
};

// Packs records (NSM form, schema->tuple_size() bytes) into a page
// image of either layout.
class PageBuilder {
 public:
  PageBuilder(const Schema* schema, PageLayout layout,
              std::uint32_t page_size);

  // Appends a record; false when the page is full.
  bool Append(std::span<const std::byte> record);
  std::uint16_t tuple_count() const;
  // The page image, always page_size bytes.
  std::span<const std::byte> image() const;
  // Empties the page for the next batch of records.
  void Reset();

 private:
  using Builder = std::variant<NsmPageBuilder, PaxPageBuilder>;
  Builder builder_;
};

}  // namespace smartssd::storage

#endif  // SMARTSSD_STORAGE_PAGE_CODEC_H_
