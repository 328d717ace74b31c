#ifndef SMARTSSD_STORAGE_PAX_PAGE_H_
#define SMARTSSD_STORAGE_PAX_PAGE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "storage/schema.h"

namespace smartssd::storage {

// PAX page (Ailamaki et al., VLDB 2001 — the paper's reference [5]): all
// values of a column are grouped in a "minipage" within the page, so a
// predicate touching one column streams contiguous bytes instead of
// striding across whole tuples. Format:
//
//   [0..2)  magic 0x5041 ("PA")
//   [2..4)  tuple_count (u16)
//   [4..6)  num_columns (u16)
//   [6..8)  reserved
//   [8..8+2n) u16 minipage byte offset per column
//   minipages, each sized capacity * column_width
//
// Minipage offsets are fixed at build time from the page's capacity, so
// appending scatters each field to its column's next slot. Readers use
// the directory in place: Open validates every entry once, and
// column_data() reads its entry straight from the page header, so
// opening a page allocates nothing.
inline constexpr std::uint16_t kPaxMagic = 0x5041;

class PaxPageBuilder {
 public:
  PaxPageBuilder(const Schema* schema, std::uint32_t page_size);

  // Appends a tuple given in serialized row (NSM record) form; the
  // builder scatters fields into minipages. Returns false when full.
  bool Append(std::span<const std::byte> tuple);

  std::uint16_t tuple_count() const { return count_; }
  std::uint32_t capacity() const { return capacity_; }
  std::span<const std::byte> image() const { return buffer_; }
  void Reset();

 private:
  const Schema* schema_;
  std::uint32_t page_size_;
  std::uint32_t capacity_;
  std::vector<std::uint32_t> minipage_offsets_;
  std::vector<std::byte> buffer_;
  std::uint16_t count_ = 0;
};

// A view of one PAX page image; it holds no copy of the directory. A
// zeroed page (magic 0) opens with no rows and no directory, so
// column_data() is only meaningful on a page with rows.
class PaxPageReader {
 public:
  // Checks the magic, the column count, and that every minipage lies
  // inside the page (kCorruption otherwise).
  static Result<PaxPageReader> Open(const Schema* schema,
                                    std::span<const std::byte> page);

  std::uint16_t tuple_count() const { return count_; }

  // Start of column `col`'s minipage (values packed at column width).
  const std::byte* column_data(int col) const {
    SMARTSSD_CHECK_GE(col, 0);
    SMARTSSD_CHECK_LT(col, schema_->num_columns());
    std::uint16_t offset;
    std::memcpy(&offset, page_ + 8 + 2 * col, sizeof(offset));
    return page_ + offset;
  }

  // Pointer to the value of column `col` in row `row`.
  const std::byte* value(std::uint16_t row, int col) const {
    return column_data(col) +
           static_cast<std::size_t>(row) * schema_->column(col).width;
  }

 private:
  PaxPageReader(const Schema* schema, const std::byte* page,
                std::uint16_t count)
      : schema_(schema), page_(page), count_(count) {}

  const Schema* schema_;
  const std::byte* page_;
  std::uint16_t count_;
};

// Max tuples a PAX page of `page_size` can hold for `schema`.
std::uint32_t PaxCapacity(const Schema& schema, std::uint32_t page_size);

}  // namespace smartssd::storage

#endif  // SMARTSSD_STORAGE_PAX_PAGE_H_
