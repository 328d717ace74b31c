#include "engine/update.h"

#include <vector>

#include "storage/nsm_page.h"
#include "storage/pax_page.h"

namespace smartssd::engine {

namespace {
// Host CPU cost of an update pass: decode + predicate + re-encode.
constexpr std::uint64_t kCyclesPerTuple = 60;
constexpr std::uint64_t kCyclesPerUpdatedTuple = 120;

// Serializes the row a RowView exposes into `tuple`.
void SerializeRow(const storage::Schema& schema, const expr::RowView& view,
                  std::span<std::byte> tuple) {
  storage::TupleWriter writer(&schema, tuple);
  for (int c = 0; c < schema.num_columns(); ++c) {
    switch (schema.column(c).type) {
      case storage::ColumnType::kInt32:
        writer.SetInt32(c,
                        static_cast<std::int32_t>(view.GetColumn(c).AsInt()));
        break;
      case storage::ColumnType::kInt64:
        writer.SetInt64(c, view.GetColumn(c).AsInt());
        break;
      case storage::ColumnType::kFixedChar:
        writer.SetChar(c, view.GetColumn(c).AsString());
        break;
    }
  }
}
}  // namespace

TableUpdater::TableUpdater(Database* db) : db_(db) {
  SMARTSSD_CHECK(db != nullptr);
}

Result<TableUpdater::UpdateStats> TableUpdater::Update(
    const std::string& table, const expr::Expression* predicate,
    const MutateFn& mutate, SimTime start) {
  SMARTSSD_ASSIGN_OR_RETURN(UpdateCursor cursor,
                            UpdateCursor::Open(db_, table, predicate, mutate));
  SimTime t = start;
  while (!cursor.done()) {
    SMARTSSD_ASSIGN_OR_RETURN(t, cursor.StepPage(t));
  }
  return cursor.stats();
}

Result<UpdateCursor> UpdateCursor::Open(Database* db, std::string table,
                                        const expr::Expression* predicate,
                                        TableUpdater::MutateFn mutate) {
  SMARTSSD_CHECK(db != nullptr);
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                            db->catalog().GetTable(table));
  if (predicate != nullptr) {
    SMARTSSD_RETURN_IF_ERROR(predicate->Validate(info->schema));
  }
  UpdateCursor cursor;
  cursor.db_ = db;
  cursor.table_ = std::move(table);
  cursor.predicate_ = predicate;
  cursor.mutate_ = std::move(mutate);
  cursor.page_count_ = info->page_count;
  return cursor;
}

Result<SimTime> UpdateCursor::StepPage(SimTime ready) {
  if (done()) return ready;
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                            db_->catalog().GetTable(table_));
  const storage::Schema& schema = info->schema;
  const std::uint32_t page_size = db_->device().page_size();
  BufferPool& pool = db_->buffer_pool();

  const std::uint64_t p = next_page_++;
  const std::uint64_t lpn = info->first_lpn + p;
  SimTime t = ready;
  SMARTSSD_ASSIGN_OR_RETURN(
      auto page_and_time,
      pool.GetPage(lpn, t, info->first_lpn + info->page_count));
  t = page_and_time.second;
  std::span<const std::byte> page = page_and_time.first;

  // Decode every tuple, apply the mutation to matches, re-encode.
  bool page_changed = false;
  std::uint64_t page_tuples = 0;
  std::vector<std::byte> tuple(schema.tuple_size());
  storage::NsmPageBuilder nsm(&schema, page_size);
  storage::PaxPageBuilder pax(&schema, page_size);
  expr::EvalStats eval;  // predicate work folded into the cycle charge
  auto rewrite_tuple = [&](const expr::RowView& view,
                           const std::byte* raw_bytes_nsm) -> Status {
    ++page_tuples;
    // Serialize the current row.
    if (raw_bytes_nsm != nullptr) {
      std::copy_n(raw_bytes_nsm, schema.tuple_size(), tuple.begin());
    } else {
      SerializeRow(schema, view, tuple);
    }
    if (predicate_ == nullptr ||
        predicate_->Evaluate(view, &eval).AsBool()) {
      storage::TupleWriter writer(&schema, tuple);
      mutate_(view, writer);
      ++stats_.rows_matched;
      page_changed = true;
    }
    const bool appended = info->layout == storage::PageLayout::kNsm
                              ? nsm.Append(tuple)
                              : pax.Append(tuple);
    if (!appended) {
      return InternalError("update: rebuilt page overflowed");
    }
    return Status::OK();
  };

  if (info->layout == storage::PageLayout::kNsm) {
    SMARTSSD_ASSIGN_OR_RETURN(const storage::NsmPageReader reader,
                              storage::NsmPageReader::Open(&schema, page));
    for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
      const std::byte* raw = reader.tuple(i);
      expr::NsmRowView view(&schema, raw);
      SMARTSSD_RETURN_IF_ERROR(rewrite_tuple(view, raw));
    }
  } else {
    SMARTSSD_ASSIGN_OR_RETURN(const storage::PaxPageReader reader,
                              storage::PaxPageReader::Open(&schema, page));
    for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
      expr::PaxRowView view(&schema, &reader, i);
      SMARTSSD_RETURN_IF_ERROR(rewrite_tuple(view, nullptr));
    }
  }

  const std::uint64_t cycles =
      page_tuples * kCyclesPerTuple +
      (page_changed ? page_tuples * kCyclesPerUpdatedTuple : 0);
  t = db_->host().Execute(cycles, t);

  if (page_changed) {
    const auto image = info->layout == storage::PageLayout::kNsm
                           ? nsm.image()
                           : pax.image();
    SMARTSSD_ASSIGN_OR_RETURN(t, pool.WritePage(lpn, image, t));
    ++stats_.pages_dirtied;
  }

  if (done() && stats_.rows_matched > 0) {
    // Stored statistics may no longer bound the data; FlushAll rebuilds.
    db_->MarkZoneMapStale(table_);
  }
  stats_.end = t;
  return t;
}

TableAppender::TableAppender(Database* db) : db_(db) {
  SMARTSSD_CHECK(db != nullptr);
}

Result<TableAppender::AppendStats> TableAppender::Append(
    const std::string& table, std::uint64_t row_count,
    const storage::RowGenerator& gen, SimTime start) {
  SMARTSSD_ASSIGN_OR_RETURN(AppendCursor cursor,
                            AppendCursor::Open(db_, table, row_count, gen));
  SimTime t = start;
  while (!cursor.done()) {
    SMARTSSD_ASSIGN_OR_RETURN(t, cursor.StepPage(t));
  }
  return cursor.stats();
}

Result<AppendCursor> AppendCursor::Open(Database* db, std::string table,
                                        std::uint64_t row_count,
                                        storage::RowGenerator gen) {
  SMARTSSD_CHECK(db != nullptr);
  SMARTSSD_RETURN_IF_ERROR(db->catalog().GetTable(table).status());
  AppendCursor cursor;
  cursor.db_ = db;
  cursor.table_ = std::move(table);
  cursor.gen_ = std::move(gen);
  cursor.target_rows_ = row_count;
  return cursor;
}

Result<SimTime> AppendCursor::StepPage(SimTime ready) {
  if (done()) return ready;
  SMARTSSD_ASSIGN_OR_RETURN(storage::TableInfo* info,
                            db_->catalog().GetMutableTable(table_));
  const storage::Schema& schema = info->schema;
  const std::uint32_t capacity = info->tuples_per_page;
  const std::uint32_t page_size = db_->device().page_size();
  BufferPool& pool = db_->buffer_pool();
  SimTime t = ready;

  // Decide which page this step fills: the partial last page (rebuilt
  // in place) or a fresh page carved from the reserved extent.
  const std::uint64_t full_slots =
      info->page_count * static_cast<std::uint64_t>(capacity);
  std::uint64_t page_index;
  bool rebuild_last = false;
  bool new_page = false;
  if (info->tuple_count == 0) {
    page_index = 0;  // the loader's minimum one-page extent, still empty
  } else if (info->tuple_count < full_slots) {
    rebuild_last = true;
    page_index = info->page_count - 1;
  } else {
    if (info->page_count >= info->reserved_pages) {
      return FailedPreconditionError(
          "append: reserved extent exhausted for table " + table_);
    }
    new_page = true;
    page_index = info->page_count;
  }
  const std::uint64_t lpn = info->first_lpn + page_index;

  storage::NsmPageBuilder nsm(&schema, page_size);
  storage::PaxPageBuilder pax(&schema, page_size);
  std::vector<std::byte> tuple(schema.tuple_size());
  auto append_serialized = [&]() -> Status {
    const bool ok = info->layout == storage::PageLayout::kNsm
                        ? nsm.Append(tuple)
                        : pax.Append(tuple);
    if (!ok) return InternalError("append: page overflowed its capacity");
    return Status::OK();
  };

  // Re-encode the partial page's existing rows.
  std::uint64_t existing = 0;
  if (rebuild_last) {
    SMARTSSD_ASSIGN_OR_RETURN(
        auto page_and_time,
        pool.GetPage(lpn, t, info->first_lpn + info->page_count));
    t = page_and_time.second;
    std::span<const std::byte> page = page_and_time.first;
    if (info->layout == storage::PageLayout::kNsm) {
      SMARTSSD_ASSIGN_OR_RETURN(const storage::NsmPageReader reader,
                                storage::NsmPageReader::Open(&schema, page));
      existing = reader.tuple_count();
      for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
        std::copy_n(reader.tuple(i), schema.tuple_size(), tuple.begin());
        SMARTSSD_RETURN_IF_ERROR(append_serialized());
      }
    } else {
      SMARTSSD_ASSIGN_OR_RETURN(const storage::PaxPageReader reader,
                                storage::PaxPageReader::Open(&schema, page));
      existing = reader.tuple_count();
      for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
        expr::PaxRowView view(&schema, &reader, i);
        SerializeRow(schema, view, tuple);
        SMARTSSD_RETURN_IF_ERROR(append_serialized());
      }
    }
  }

  // Append new rows until the page is full or the batch is done. `gen_`
  // sees the global row index, so whole-table generators stay pure.
  std::uint64_t new_rows = 0;
  while (existing + new_rows < capacity && !done()) {
    storage::TupleWriter writer(&schema, tuple);
    gen_(info->tuple_count + new_rows, writer);
    SMARTSSD_RETURN_IF_ERROR(append_serialized());
    ++new_rows;
    ++stats_.rows_appended;
  }
  SMARTSSD_CHECK_GT(new_rows, 0ULL);

  const std::uint64_t cycles = existing * kCyclesPerTuple +
                               new_rows * kCyclesPerUpdatedTuple;
  t = db_->host().Execute(cycles, t);

  const auto image = info->layout == storage::PageLayout::kNsm
                         ? nsm.image()
                         : pax.image();
  SMARTSSD_ASSIGN_OR_RETURN(t, pool.WritePage(lpn, image, t));
  ++stats_.pages_dirtied;
  info->tuple_count += new_rows;
  if (new_page) ++info->page_count;

  SMARTSSD_RETURN_IF_ERROR(db_->WidenZoneMap(table_, page_index, image));
  stats_.end = t;
  return t;
}

}  // namespace smartssd::engine
