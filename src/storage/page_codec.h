#ifndef SMARTSSD_STORAGE_PAGE_CODEC_H_
#define SMARTSSD_STORAGE_PAGE_CODEC_H_

#include <cstdint>
#include <span>
#include <variant>

#include "common/result.h"
#include "storage/nsm_page.h"
#include "storage/pax_page.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace smartssd::storage {

// The one page codec for row-at-a-time code: PageRows reads the rows of
// a page image and PageBuilder packs records into one, in either
// layout. The formats themselves are NsmPage* and PaxPage*; outside
// storage/, only the vectorized kernel's column setup reads them
// directly (exec/page_processor.cc).

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
