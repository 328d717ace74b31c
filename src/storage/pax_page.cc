#include "storage/pax_page.h"

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

std::uint32_t HeaderBytes(const Schema& schema) {
  return 8 + 2u * static_cast<std::uint32_t>(schema.num_columns());
}

}  // namespace

std::uint32_t PaxCapacity(const Schema& schema, std::uint32_t page_size) {
  const std::uint32_t header = HeaderBytes(schema);
  if (page_size <= header) return 0;
  return (page_size - header) / schema.tuple_size();
}

PaxPageBuilder::PaxPageBuilder(const Schema* schema, std::uint32_t page_size)
    : schema_(schema), page_size_(page_size) {
  SMARTSSD_CHECK(schema != nullptr);
  SMARTSSD_CHECK_LE(page_size, 65536u);
  capacity_ = PaxCapacity(*schema, page_size);
  SMARTSSD_CHECK_GT(capacity_, 0u);
  buffer_.resize(page_size);
  std::uint32_t offset = HeaderBytes(*schema);
  minipage_offsets_.reserve(static_cast<std::size_t>(schema->num_columns()));
  for (int c = 0; c < schema->num_columns(); ++c) {
    minipage_offsets_.push_back(offset);
    offset += capacity_ * schema->column(c).width;
  }
  SMARTSSD_CHECK_LE(offset, page_size);
  Reset();
}

bool PaxPageBuilder::Append(std::span<const std::byte> tuple) {
  SMARTSSD_CHECK_EQ(tuple.size(), schema_->tuple_size());
  if (count_ >= capacity_) return false;
  for (int c = 0; c < schema_->num_columns(); ++c) {
    const std::uint32_t width = schema_->column(c).width;
    std::memcpy(buffer_.data() + minipage_offsets_[static_cast<std::size_t>(c)] +
                    static_cast<std::size_t>(count_) * width,
                tuple.data() + schema_->offset(c), width);
  }
  ++count_;
  StoreU16(buffer_.data() + 2, count_);
  return true;
}

void PaxPageBuilder::Reset() {
  std::fill(buffer_.begin(), buffer_.end(), std::byte{0});
  count_ = 0;
  StoreU16(buffer_.data() + 0, kPaxMagic);
  StoreU16(buffer_.data() + 2, 0);
  StoreU16(buffer_.data() + 4,
           static_cast<std::uint16_t>(schema_->num_columns()));
  for (int c = 0; c < schema_->num_columns(); ++c) {
    StoreU16(buffer_.data() + 8 + 2 * c,
             static_cast<std::uint16_t>(
                 minipage_offsets_[static_cast<std::size_t>(c)]));
  }
}

Result<PaxPageReader> PaxPageReader::Open(const Schema* schema,
                                          std::span<const std::byte> page) {
  SMARTSSD_CHECK(schema != nullptr);
  if (page.size() < 8) {
    return CorruptionError("PAX page smaller than its header");
  }
  const std::uint16_t magic = LoadU16(page.data());
  if (magic == 0) {
    return PaxPageReader(schema, page.data(), 0);
  }
  if (magic != kPaxMagic) {
    return CorruptionError("bad PAX page magic");
  }
  const std::uint16_t count = LoadU16(page.data() + 2);
  const std::uint16_t ncols = LoadU16(page.data() + 4);
  if (ncols != schema->num_columns()) {
    return CorruptionError("PAX page column count does not match schema");
  }
  if (page.size() < HeaderBytes(*schema)) {
    return CorruptionError("PAX page truncated before minipage directory");
  }
  for (int c = 0; c < ncols; ++c) {
    const std::uint32_t offset = LoadU16(page.data() + 8 + 2 * c);
    const std::uint64_t end =
        offset + static_cast<std::uint64_t>(count) * schema->column(c).width;
    if (offset < HeaderBytes(*schema) || end > page.size()) {
      return CorruptionError("PAX minipage outside the page");
    }
  }
  return PaxPageReader(schema, page.data(), count);
}

const std::byte* PaxPageReader::column_data(int col) const {
  SMARTSSD_CHECK_GE(col, 0);
  SMARTSSD_CHECK_LT(col, schema_->num_columns());
  return page_ + LoadU16(page_ + 8 + 2 * col);
}

}  // namespace smartssd::storage
