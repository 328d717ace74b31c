#include "engine/update.h"

#include <optional>
#include <vector>

#include "expr/row_view.h"
#include "storage/page_codec.h"

namespace smartssd::engine {

namespace {
// Host CPU cost of an update pass: decode + predicate + re-encode.
constexpr std::uint64_t kCyclesPerTuple = 60;
constexpr std::uint64_t kCyclesPerUpdatedTuple = 120;
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

  // Find the first matching row: a page with none is neither re-encoded
  // nor written.
  SMARTSSD_ASSIGN_OR_RETURN(
      const storage::PageRows rows,
      storage::PageRows::Open(&schema, info->layout, page));
  expr::EvalStats eval;  // predicate work folded into the cycle charge
  expr::PageRowView row(&rows);
  const auto matches = [&](std::uint16_t i) {
    row.Reset(i);
    return predicate_ == nullptr || predicate_->Evaluate(row, &eval).AsBool();
  };
  const std::uint16_t page_tuples = rows.tuple_count();
  std::uint16_t first = 0;
  while (first < page_tuples && !matches(first)) ++first;
  const bool page_changed = first < page_tuples;

  // Re-encode the page, applying the mutation to every match.
  std::optional<storage::PageBuilder> builder;
  if (page_changed) {
    builder.emplace(&schema, info->layout, page_size);
    std::vector<std::byte> tuple(schema.tuple_size());
    for (std::uint16_t i = 0; i < page_tuples; ++i) {
      const bool match = i >= first && matches(i);
      row.Reset(i);
      row.CopyRecord(tuple.data());
      if (match) {
        storage::TupleWriter writer(&schema, tuple);
        mutate_(row, writer);
        ++stats_.rows_matched;
      }
      if (!builder->Append(tuple)) {
        return InternalError("update: rebuilt page overflowed");
      }
    }
  }

  const std::uint64_t cycles =
      page_tuples * kCyclesPerTuple +
      (page_changed ? page_tuples * kCyclesPerUpdatedTuple : 0);
  t = db_->host().Execute(cycles, t);

  if (page_changed) {
    SMARTSSD_ASSIGN_OR_RETURN(t, pool.WritePage(lpn, builder->image(), t));
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

  storage::PageBuilder builder(&schema, info->layout, page_size);
  std::vector<std::byte> tuple(schema.tuple_size());
  auto append_serialized = [&]() -> Status {
    if (!builder.Append(tuple)) {
      return InternalError("append: page overflowed its capacity");
    }
    return Status::OK();
  };

  // Re-encode the partial page's existing rows.
  std::uint64_t existing = 0;
  if (rebuild_last) {
    SMARTSSD_ASSIGN_OR_RETURN(
        auto page_and_time,
        pool.GetPage(lpn, t, info->first_lpn + info->page_count));
    t = page_and_time.second;
    SMARTSSD_ASSIGN_OR_RETURN(
        const storage::PageRows rows,
        storage::PageRows::Open(&schema, info->layout, page_and_time.first));
    existing = rows.tuple_count();
    expr::PageRowView row(&rows);
    for (std::uint16_t i = 0; i < rows.tuple_count(); ++i) {
      row.Reset(i);
      row.CopyRecord(tuple.data());
      SMARTSSD_RETURN_IF_ERROR(append_serialized());
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

  const std::span<const std::byte> image = builder.image();
  SMARTSSD_ASSIGN_OR_RETURN(t, pool.WritePage(lpn, image, t));
  ++stats_.pages_dirtied;
  info->tuple_count += new_rows;
  if (new_page) ++info->page_count;

  SMARTSSD_RETURN_IF_ERROR(db_->WidenZoneMap(table_, page_index, image));
  stats_.end = t;
  return t;
}

}  // namespace smartssd::engine
