#include "check/write_phase.h"

#include <iterator>
#include <memory>
#include <vector>

#include "engine/update.h"
#include "expr/expression.h"
#include "expr/row_view.h"
#include "storage/page_codec.h"
#include "storage/tuple.h"

namespace smartssd::check {

namespace {

// Stateless mix, same family as table_gen's cell generator but salted
// differently so phase parameters never correlate with cell values.
std::uint64_t PhaseMix(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL +
                    (a + 1) * 0xD6E8FEB86659FD93ULL +
                    (b + 1) * 0xA5A5B0356F4BD593ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

// Columns an update phase may rewrite: never rid (identity), fk (join
// key), or the cat columns (group-by cardinality) — mutating those
// would change which *other* rows a query sees, which is fine, but
// keeping them stable makes failures much easier to read.
constexpr int kMutableCols[] = {3, 4, 5, 6};

}  // namespace

WritePhaseSpec GenerateWritePhase(std::uint64_t seed, int index,
                                  const TableGenConfig& tables) {
  WritePhaseSpec phase;
  if (index % 2 == 0) return phase;
  phase.enabled = true;
  const std::uint64_t i = static_cast<std::uint64_t>(index);
  phase.with_update = PhaseMix(seed, i, 1) % 4 != 0;
  const std::uint64_t lo = PhaseMix(seed, i, 2) % tables.outer_rows;
  const std::uint64_t span = 1 + PhaseMix(seed, i, 3) % 200;
  phase.update_lo = static_cast<std::int64_t>(lo);
  phase.update_hi = static_cast<std::int64_t>(lo + span);
  phase.update_col =
      kMutableCols[PhaseMix(seed, i, 4) % std::size(kMutableCols)];
  phase.salt = PhaseMix(seed, i, 5);
  if (PhaseMix(seed, i, 6) % 3 != 0) {
    phase.append_rows =
        1 + PhaseMix(seed, i, 7) % kMaxWritePhaseAppendRows;
  }
  if (!phase.with_update && phase.append_rows == 0) {
    phase.append_rows = 8;  // a phase always writes something
  }
  return phase;
}

std::int64_t MutatedValue(std::uint64_t salt, std::int64_t rid, int col) {
  return static_cast<std::int64_t>(
      PhaseMix(salt, static_cast<std::uint64_t>(rid),
               static_cast<std::uint64_t>(col)) %
      static_cast<std::uint64_t>(kValueDomain));
}

TableOracle::TableOracle(const TableGenConfig& config) : config_(config) {
  rows_.resize(config.outer_rows);
  for (std::uint64_t r = 0; r < config.outer_rows; ++r) {
    for (int c = 0; c < kOuterColumns; ++c) {
      rows_[r][static_cast<std::size_t>(c)] = OuterValue(config, r, c);
    }
  }
}

void TableOracle::Apply(const WritePhaseSpec& phase) {
  if (!phase.enabled) return;
  if (phase.with_update) {
    for (auto& row : rows_) {
      const std::int64_t rid = row[0];
      if (rid >= phase.update_lo && rid <= phase.update_hi) {
        row[static_cast<std::size_t>(phase.update_col)] =
            MutatedValue(phase.salt, rid, phase.update_col);
      }
    }
  }
  for (std::uint64_t i = 0; i < phase.append_rows; ++i) {
    const std::uint64_t global = rows_.size();
    std::array<std::int64_t, kOuterColumns> row;
    for (int c = 0; c < kOuterColumns; ++c) {
      row[static_cast<std::size_t>(c)] = OuterValue(config_, global, c);
    }
    rows_.push_back(row);
  }
}

Status TableOracle::Verify(engine::Database& db) const {
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                            db.catalog().GetTable(kOuterTable));
  if (info->tuple_count != rows_.size()) {
    return InternalError(
        "oracle: table has " + std::to_string(info->tuple_count) +
        " rows, expected " + std::to_string(rows_.size()));
  }
  const storage::Schema& schema = info->schema;
  std::vector<std::byte> buffer(db.device().page_size());
  std::uint64_t row = 0;
  for (std::uint64_t p = 0; p < info->page_count; ++p) {
    SMARTSSD_RETURN_IF_ERROR(
        db.device()
            .ReadPages(info->first_lpn + p, 1, buffer, /*ready=*/0)
            .status());
    SMARTSSD_ASSIGN_OR_RETURN(
        const storage::PageRows rows,
        storage::PageRows::Open(&schema, info->layout, buffer));
    expr::PageRowView view(&rows);
    for (std::uint16_t i = 0; i < rows.tuple_count(); ++i, ++row) {
      view.Reset(i);
      for (int c = 0; c < schema.num_columns(); ++c) {
        const std::int64_t got = view.GetColumn(c).AsInt();
        const std::int64_t want = rows_[row][static_cast<std::size_t>(c)];
        if (got != want) {
          return InternalError(
              "oracle: F[" + std::to_string(row) + "][" +
              std::to_string(c) + "] = " + std::to_string(got) +
              ", expected " + std::to_string(want) + " (page " +
              std::to_string(p) + ")");
        }
      }
    }
  }
  if (row != rows_.size()) {
    return InternalError("oracle: decoded " + std::to_string(row) +
                         " rows, expected " +
                         std::to_string(rows_.size()));
  }
  return Status::OK();
}

Status ApplyWritePhase(engine::Database& db, const TableGenConfig& config,
                       const WritePhaseSpec& phase) {
  if (!phase.enabled) return Status::OK();
  if (phase.with_update) {
    const expr::ExprPtr predicate = expr::And([&] {
      std::vector<expr::ExprPtr> terms;
      terms.push_back(expr::Ge(expr::Col(0), expr::Lit(phase.update_lo)));
      terms.push_back(expr::Le(expr::Col(0), expr::Lit(phase.update_hi)));
      return terms;
    }());
    engine::TableUpdater updater(&db);
    const int col = phase.update_col;
    const std::uint64_t salt = phase.salt;
    const storage::Schema schema = OuterSchema();
    const bool is64 =
        schema.column(col).type == storage::ColumnType::kInt64;
    SMARTSSD_RETURN_IF_ERROR(
        updater
            .Update(kOuterTable, predicate.get(),
                    [col, salt, is64](const expr::RowView& row,
                                      storage::TupleWriter& writer) {
                      const std::int64_t rid = row.GetColumn(0).AsInt();
                      const std::int64_t v = MutatedValue(salt, rid, col);
                      if (is64) {
                        writer.SetInt64(col, v);
                      } else {
                        writer.SetInt32(col,
                                        static_cast<std::int32_t>(v));
                      }
                    })
            .status());
  }
  if (phase.append_rows > 0) {
    engine::TableAppender appender(&db);
    const storage::Schema schema = OuterSchema();
    SMARTSSD_RETURN_IF_ERROR(
        appender
            .Append(kOuterTable, phase.append_rows,
                    [&config, &schema](std::uint64_t row,
                                       storage::TupleWriter& writer) {
                      for (int c = 0; c < schema.num_columns(); ++c) {
                        const std::int64_t v = OuterValue(config, row, c);
                        if (schema.column(c).type ==
                            storage::ColumnType::kInt64) {
                          writer.SetInt64(c, v);
                        } else {
                          writer.SetInt32(
                              c, static_cast<std::int32_t>(v));
                        }
                      }
                    })
            .status());
  }
  return db.buffer_pool().FlushAll(/*ready=*/0).status();
}

}  // namespace smartssd::check
