#include "storage/nsm_page.h"

#include <cstring>

namespace smartssd::storage {

namespace {

std::uint16_t LoadU16(const std::byte* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU16(std::byte* p, std::uint16_t v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

NsmPageBuilder::NsmPageBuilder(const Schema* schema, std::uint32_t page_size)
    : schema_(schema), page_size_(page_size) {
  SMARTSSD_CHECK(schema != nullptr);
  SMARTSSD_CHECK_GE(page_size, 64u);
  SMARTSSD_CHECK_LE(page_size, 65536u);
  buffer_.resize(page_size);
  Reset();
}

std::uint32_t NsmCapacity(const Schema& schema, std::uint32_t page_size) {
  if (page_size <= 8) return 0;
  return (page_size - 8) / (schema.tuple_size() + 2);
}

bool NsmPageBuilder::Append(std::span<const std::byte> tuple) {
  SMARTSSD_CHECK_EQ(tuple.size(), schema_->tuple_size());
  const std::uint32_t needed_end = free_start_ + schema_->tuple_size();
  const std::uint32_t slot_begin =
      page_size_ - 2u * (static_cast<std::uint32_t>(count_) + 1);
  if (needed_end > slot_begin) return false;
  std::memcpy(buffer_.data() + free_start_, tuple.data(), tuple.size());
  StoreU16(buffer_.data() + page_size_ - 2 * (count_ + 1), free_start_);
  free_start_ = static_cast<std::uint16_t>(needed_end);
  ++count_;
  StoreU16(buffer_.data() + 2, count_);
  StoreU16(buffer_.data() + 4, free_start_);
  return true;
}

void NsmPageBuilder::Reset() {
  std::fill(buffer_.begin(), buffer_.end(), std::byte{0});
  count_ = 0;
  free_start_ = 8;
  StoreU16(buffer_.data() + 0, kNsmMagic);
  StoreU16(buffer_.data() + 2, 0);
  StoreU16(buffer_.data() + 4, free_start_);
}

Result<NsmPageReader> NsmPageReader::Open(
    const Schema* schema, std::span<const std::byte> page,
    std::vector<const std::byte*>* records) {
  SMARTSSD_CHECK(schema != nullptr);
  if (page.size() < 8) {
    return CorruptionError("NSM page smaller than its header");
  }
  const std::uint16_t magic = LoadU16(page.data());
  if (magic == 0) {
    // Never-written page: empty.
    return NsmPageReader(schema, page, 0);
  }
  if (magic != kNsmMagic) {
    return CorruptionError("bad NSM page magic");
  }
  const std::uint16_t count = LoadU16(page.data() + 2);
  // Every slot and every tuple it points at must be in bounds.
  const std::size_t slots_bytes = 2u * count;
  if (8u + static_cast<std::size_t>(count) * schema->tuple_size() +
          slots_bytes >
      page.size()) {
    return CorruptionError("NSM page tuple count exceeds page capacity");
  }
  if (records != nullptr && records->size() < count) records->resize(count);
  const std::byte* base = page.data();
  const std::size_t tuples_end = page.size() - slots_bytes;
  const std::byte* slot = base + page.size() - 2;
  for (std::uint16_t i = 0; i < count; ++i, slot -= 2) {
    const std::uint16_t offset = LoadU16(slot);
    if (offset < 8 || offset + schema->tuple_size() > tuples_end) {
      return CorruptionError("NSM slot points outside the page");
    }
    if (records != nullptr) (*records)[i] = base + offset;
  }
  return NsmPageReader(schema, page, count);
}

}  // namespace smartssd::storage
