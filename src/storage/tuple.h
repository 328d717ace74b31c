#ifndef SMARTSSD_STORAGE_TUPLE_H_
#define SMARTSSD_STORAGE_TUPLE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "common/macros.h"
#include "storage/schema.h"

namespace smartssd::storage {

// The value of an integer column (INT32 or INT64) from its bytes: the
// one integer decode every row reader shares.
inline std::int64_t DecodeInt(const Column& column, const std::byte* bytes) {
  if (column.type == ColumnType::kInt32) {
    std::int32_t v;
    std::memcpy(&v, bytes, sizeof(v));
    return v;
  }
  std::int64_t v;
  std::memcpy(&v, bytes, sizeof(v));
  return v;
}

// Reads typed fields from a serialized fixed-length tuple. Values are
// little-endian in page images (we memcpy, so the in-memory and on-page
// representations match on every platform this builds for).
class TupleReader {
 public:
  TupleReader(const Schema* schema, const std::byte* tuple)
      : schema_(schema), tuple_(tuple) {}

  std::int32_t GetInt32(int col) const {
    std::int32_t v;
    std::memcpy(&v, tuple_ + schema_->offset(col), sizeof(v));
    return v;
  }

  std::int64_t GetInt64(int col) const {
    std::int64_t v;
    std::memcpy(&v, tuple_ + schema_->offset(col), sizeof(v));
    return v;
  }

  std::string_view GetChar(int col) const {
    return {reinterpret_cast<const char*>(tuple_ + schema_->offset(col)),
            schema_->column(col).width};
  }

 private:
  const Schema* schema_;
  const std::byte* tuple_;
};

// Writes typed fields into a serialized tuple buffer.
class TupleWriter {
 public:
  TupleWriter(const Schema* schema, std::span<std::byte> buffer)
      : schema_(schema), buffer_(buffer) {
    SMARTSSD_CHECK_GE(buffer.size(), schema->tuple_size());
  }

  void SetInt32(int col, std::int32_t v) {
    SMARTSSD_CHECK(schema_->column(col).type == ColumnType::kInt32);
    std::memcpy(buffer_.data() + schema_->offset(col), &v, sizeof(v));
  }

  void SetInt64(int col, std::int64_t v) {
    SMARTSSD_CHECK(schema_->column(col).type == ColumnType::kInt64);
    std::memcpy(buffer_.data() + schema_->offset(col), &v, sizeof(v));
  }

  // Copies an already-serialized tuple of the same schema wholesale
  // (used when replaying materialized rows, e.g. partitioned loads).
  void CopyFrom(std::span<const std::byte> tuple) {
    SMARTSSD_CHECK_EQ(tuple.size(), schema_->tuple_size());
    std::memcpy(buffer_.data(), tuple.data(), tuple.size());
  }

  // Copies `s` into the CHAR field, space-padding or truncating to width.
  void SetChar(int col, std::string_view s) {
    const Column& column = schema_->column(col);
    SMARTSSD_CHECK(column.type == ColumnType::kFixedChar);
    std::byte* dst = buffer_.data() + schema_->offset(col);
    const std::size_t n =
        s.size() < column.width ? s.size() : column.width;
    std::memcpy(dst, s.data(), n);
    std::memset(dst + n, ' ', column.width - n);
  }

 private:
  const Schema* schema_;
  std::span<std::byte> buffer_;
};

}  // namespace smartssd::storage

#endif  // SMARTSSD_STORAGE_TUPLE_H_
