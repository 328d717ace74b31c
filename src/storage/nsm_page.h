#ifndef SMARTSSD_STORAGE_NSM_PAGE_H_
#define SMARTSSD_STORAGE_NSM_PAGE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "storage/schema.h"

namespace smartssd::storage {

// Classic N-ary slotted page (the paper's default SQL Server heap
// layout). Format:
//
//   [0..2)  magic 0x4E53 ("NS")
//   [2..4)  tuple_count (u16)
//   [4..6)  free_start  (u16) — next byte available for tuple data
//   [6..8)  reserved
//   [8..)   tuple records, packed forward
//   ...
//   slot directory growing backward from the page end: slot i is a u16
//   at page_size - 2*(i+1) holding the byte offset of tuple i.
//
// Tuples are fixed-length here (see types.h), but the slot directory is
// kept anyway: it is what the real system scans, and its 2 bytes/tuple
// overhead is part of the NSM-vs-PAX capacity difference.
inline constexpr std::uint16_t kNsmMagic = 0x4E53;

// Max tuples an NSM page of `page_size` can hold for `schema`.
std::uint32_t NsmCapacity(const Schema& schema, std::uint32_t page_size);

class NsmPageBuilder {
 public:
  NsmPageBuilder(const Schema* schema, std::uint32_t page_size);

  // Appends a serialized tuple; returns false when the page is full.
  bool Append(std::span<const std::byte> tuple);

  std::uint16_t tuple_count() const { return count_; }

  // Finalized page image (always exactly page_size bytes).
  std::span<const std::byte> image() const { return buffer_; }

  void Reset();

 private:
  const Schema* schema_;
  std::uint32_t page_size_;
  std::vector<std::byte> buffer_;
  std::uint16_t count_ = 0;
  std::uint16_t free_start_ = 8;
};

class NsmPageReader {
 public:
  // Validates the header and that every slot points at a whole record
  // between the header and the slot directory; a zeroed (never written)
  // page reads as empty. Given `records`, the same slot walk stores
  // tuple i's record pointer in (*records)[i], growing it to
  // tuple_count() entries (it never shrinks).
  static Result<NsmPageReader> Open(
      const Schema* schema, std::span<const std::byte> page,
      std::vector<const std::byte*>* records = nullptr);

  std::uint16_t tuple_count() const { return count_; }

  // Pointer to tuple i's record (fixed schema->tuple_size() bytes).
  const std::byte* tuple(std::uint16_t i) const {
    SMARTSSD_CHECK_LT(i, count_);
    std::uint16_t offset;
    std::memcpy(&offset, page_.data() + page_.size() - 2 * (i + 1),
                sizeof(offset));
    return page_.data() + offset;
  }

 private:
  NsmPageReader(const Schema* schema, std::span<const std::byte> page,
                std::uint16_t count)
      : schema_(schema), page_(page), count_(count) {}

  const Schema* schema_;
  std::span<const std::byte> page_;
  std::uint16_t count_;
};

}  // namespace smartssd::storage

#endif  // SMARTSSD_STORAGE_NSM_PAGE_H_
