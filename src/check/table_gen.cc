#include "check/table_gen.h"

#include "storage/tuple.h"

namespace smartssd::check {

namespace {

// splitmix64-style stateless mix of (seed, row, col). Stateless is the
// point: partitioned loads call the generator with global row indexes
// from different workers, so cell values must not depend on call order.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t row, std::uint64_t col) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL +
                    row * 0xBF58476D1CE4E5B9ULL +
                    (col + 1) * 0x94D049BB133111EBULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

storage::RowGenerator MakeGenerator(
    const storage::Schema& schema,
    std::function<std::int64_t(std::uint64_t row, int col)> value) {
  return [&schema, value = std::move(value)](std::uint64_t row,
                                             storage::TupleWriter& writer) {
    for (int col = 0; col < schema.num_columns(); ++col) {
      const std::int64_t v = value(row, col);
      if (schema.column(col).type == storage::ColumnType::kInt64) {
        writer.SetInt64(col, v);
      } else {
        writer.SetInt32(col, static_cast<std::int32_t>(v));
      }
    }
  };
}

}  // namespace

storage::Schema OuterSchema() {
  return storage::Schema::Create({
                                     storage::Column::Int32("rid"),
                                     storage::Column::Int32("fk"),
                                     storage::Column::Int32("cat"),
                                     storage::Column::Int32("sel"),
                                     storage::Column::Int64("v64"),
                                     storage::Column::Int64("w64"),
                                     storage::Column::Int32("v32"),
                                     storage::Column::Int32("cat2"),
                                 })
      .value();
}

storage::Schema InnerSchema() {
  return storage::Schema::Create({
                                     storage::Column::Int32("dk"),
                                     storage::Column::Int32("dpay"),
                                     storage::Column::Int64("dval"),
                                 })
      .value();
}

std::int64_t OuterValue(const TableGenConfig& config, std::uint64_t row,
                        int col) {
  const std::uint64_t h = Mix(config.seed, row, static_cast<std::uint64_t>(col));
  switch (col) {
    case 0:
      return static_cast<std::int64_t>(row);
    case 1:
      return 1 + static_cast<std::int64_t>(h % config.fk_domain());
    case 2:
      return static_cast<std::int64_t>(
          h % static_cast<std::uint64_t>(kCatCardinality));
    case 7:
      return static_cast<std::int64_t>(
          h % static_cast<std::uint64_t>(kCat2Cardinality));
    default:
      return static_cast<std::int64_t>(
          h % static_cast<std::uint64_t>(kValueDomain));
  }
}

std::int64_t InnerValue(const TableGenConfig& config, std::uint64_t row,
                        int col) {
  if (col == 0) return static_cast<std::int64_t>(row) + 1;
  const std::uint64_t h =
      Mix(config.seed ^ 0xD1FFABu, row, static_cast<std::uint64_t>(col));
  return static_cast<std::int64_t>(
      h % static_cast<std::uint64_t>(kValueDomain));
}

Status LoadTables(engine::Database& db, const TableGenConfig& config,
                  storage::PageLayout layout) {
  const storage::Schema outer = OuterSchema();
  const storage::Schema inner = InnerSchema();
  SMARTSSD_RETURN_IF_ERROR(
      db.LoadTable(kOuterTable, outer, layout, config.outer_rows,
                   MakeGenerator(outer,
                                 [&config](std::uint64_t row, int col) {
                                   return OuterValue(config, row, col);
                                 }))
          .status());
  SMARTSSD_RETURN_IF_ERROR(
      db.LoadTable(kInnerTable, inner, layout, config.inner_rows,
                   MakeGenerator(inner,
                                 [&config](std::uint64_t row, int col) {
                                   return InnerValue(config, row, col);
                                 }))
          .status());
  return Status::OK();
}

Status LoadTablesFleet(engine::Fleet& fleet, const TableGenConfig& config,
                       storage::PageLayout layout) {
  const storage::Schema outer = OuterSchema();
  const storage::Schema inner = InnerSchema();
  SMARTSSD_RETURN_IF_ERROR(fleet.LoadPartitionedTable(
      kOuterTable, outer, layout, config.outer_rows,
      MakeGenerator(outer, [&config](std::uint64_t row, int col) {
        return OuterValue(config, row, col);
      })));
  SMARTSSD_RETURN_IF_ERROR(fleet.LoadReplicatedTable(
      kInnerTable, inner, layout, config.inner_rows,
      MakeGenerator(inner, [&config](std::uint64_t row, int col) {
        return InnerValue(config, row, col);
      })));
  return Status::OK();
}

}  // namespace smartssd::check
