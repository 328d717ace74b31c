#ifndef SMARTSSD_EXPR_ROW_VIEW_H_
#define SMARTSSD_EXPR_ROW_VIEW_H_

#include <cstring>

#include "expr/value.h"
#include "storage/page_codec.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace smartssd::expr {

// Uniform column access over either layout, so one expression tree
// evaluates against NSM records and PAX minipages alike. The layout
// difference shows up in the *cost model* (cycles per access), not in
// correctness.
//
// A view only says where each column's bytes are; the decode into a
// Value and the copy out as an NSM record are written once, here, for
// every view. A row that is one NSM record (a materialized record, or a
// row of an NSM page) names the record, and its columns are read with
// no virtual call; other rows (a PAX row, a joined row) locate each
// column through LocateColumn.
class RowView {
 public:
  virtual ~RowView() = default;

  const storage::Schema& schema() const { return *schema_; }

  // The bytes of column `col`, at the column's width.
  const std::byte* ColumnBytes(int col) const {
    return record_ != nullptr ? record_ + schema_->offset(col)
                              : LocateColumn(col);
  }

  // Column `col` as a Value; a CHAR value views the row's bytes.
  Value GetColumn(int col) const {
    const storage::Column& column = schema_->column(col);
    const std::byte* bytes = ColumnBytes(col);
    if (column.type == storage::ColumnType::kFixedChar) {
      return Value::String(
          {reinterpret_cast<const char*>(bytes), column.width});
    }
    return Value::Int(storage::DecodeInt(column, bytes));
  }

  // Writes the row out as an NSM record of schema() (tuple_size() bytes
  // at `record`).
  void CopyRecord(std::byte* record) const {
    if (record_ != nullptr) {
      std::memcpy(record, record_, schema_->tuple_size());
      return;
    }
    for (int c = 0; c < schema_->num_columns(); ++c) {
      std::memcpy(record + schema_->offset(c), LocateColumn(c),
                  schema_->column(c).width);
    }
  }

 protected:
  explicit RowView(const storage::Schema* schema) : schema_(schema) {}

  // The NSM record the row is, or nullptr when it is not one.
  void set_record(const std::byte* record) { record_ = record; }

 private:
  // Column `col` of a row that is not one NSM record.
  virtual const std::byte* LocateColumn(int col) const = 0;

  const storage::Schema* schema_;
  const std::byte* record_ = nullptr;
};

// A materialized NSM record, such as a spilled probe row or a staged
// join match.
class NsmRowView final : public RowView {
 public:
  NsmRowView(const storage::Schema* schema, const std::byte* tuple)
      : RowView(schema) {
    set_record(tuple);
  }

 private:
  // Never called: the row is always its record.
  const std::byte* LocateColumn(int) const override { return nullptr; }
};

// A row of a page image in either layout (storage::PageRows). Reset()
// locates the row once, so an NSM row reads its slot once, not once
// per column; call it before reading a column.
class PageRowView final : public RowView {
 public:
  explicit PageRowView(const storage::PageRows* rows)
      : RowView(&rows->schema()), rows_(rows) {}

  void Reset(std::uint16_t row) {
    row_ = rows_->row(row);
    set_record(row_.record);
  }

 private:
  const std::byte* LocateColumn(int col) const override {
    return rows_->column(row_, col);
  }

  const storage::PageRows* rows_;
  storage::PageRows::Row row_;
};

// A row of a page opened as storage::PageColumns: an NSM row is its
// record, located by the walk that opened the page; a PAX row locates
// each column in its minipage. Call Reset() before reading a column.
class PageColumnsRowView final : public RowView {
 public:
  PageColumnsRowView(const storage::Schema* schema,
                     const storage::PageColumns* columns)
      : RowView(schema), columns_(columns) {}

  void Reset(std::uint16_t row) {
    row_ = row;
    set_record(columns_->record(row));
  }

 private:
  const std::byte* LocateColumn(int col) const override {
    return columns_->column(col).at(row_);
  }

  const storage::PageColumns* columns_;
  std::uint16_t row_ = 0;
};

// A join's combined row: the outer row's columns, then the matched
// payload's. The combined schema packs the payload columns after the
// outer record, so a payload column's bytes sit in the payload at its
// combined offset less the outer record's size.
class CombinedRowView final : public RowView {
 public:
  CombinedRowView(const storage::Schema* combined, const RowView* outer)
      : RowView(combined), outer_(outer) {}

  void SetPayload(const std::byte* payload) { payload_ = payload; }

 private:
  const std::byte* LocateColumn(int col) const override {
    const storage::Schema& outer_schema = outer_->schema();
    if (col < outer_schema.num_columns()) return outer_->ColumnBytes(col);
    SMARTSSD_CHECK(payload_ != nullptr);
    return payload_ + (schema().offset(col) - outer_schema.tuple_size());
  }

  const RowView* outer_;
  const std::byte* payload_ = nullptr;
};

}  // namespace smartssd::expr

#endif  // SMARTSSD_EXPR_ROW_VIEW_H_
