#include "engine/update.h"

#include <algorithm>
#include <numeric>

#include "expr/row_view.h"

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
  return UpdateCursor(db, std::move(table), *info, predicate,
                      std::move(mutate));
}

UpdateCursor::UpdateCursor(Database* db, std::string table,
                           const storage::TableInfo& info,
                           const expr::Expression* predicate,
                           TableUpdater::MutateFn mutate)
    : db_(db),
      table_(std::move(table)),
      predicate_(predicate),
      mutate_(std::move(mutate)),
      page_count_(info.page_count),
      builder_(&info.schema, info.layout, db->device().page_size()),
      record_(info.schema.tuple_size()) {
  if (predicate == nullptr) return;
  auto compiled =
      expr::CompiledExpr::CompilePredicate(*predicate, info.schema);
  if (!compiled.ok()) return;  // the interpreter decides the matches
  filter_.emplace(std::move(compiled).value());
  predicate->CollectColumns(&filter_columns_);
  std::sort(filter_columns_.begin(), filter_columns_.end());
  filter_columns_.erase(
      std::unique(filter_columns_.begin(), filter_columns_.end()),
      filter_columns_.end());
  batch_columns_.resize(static_cast<std::size_t>(info.schema.num_columns()));
  for (int c = 0; c < info.schema.num_columns(); ++c) {
    expr::BatchColumn& column = batch_columns_[static_cast<std::size_t>(c)];
    column.type = info.schema.column(c).type;
    column.width = info.schema.column(c).width;
  }
}

Result<storage::PageColumns> UpdateCursor::MatchRows(
    const storage::TableInfo& info, std::span<const std::byte> page) {
  expr::EvalStats eval;  // predicate work folded into the cycle charge
  SMARTSSD_ASSIGN_OR_RETURN(
      storage::PageColumns columns,
      storage::PageColumns::Open(&info.schema, info.layout, page,
                                 &records_));
  const std::uint16_t n = columns.tuple_count();
  matches_.clear();
  if (predicate_ != nullptr && !filter_.has_value()) {
    expr::PageColumnsRowView row(&info.schema, &columns);
    for (std::uint16_t i = 0; i < n; ++i) {
      row.Reset(i);
      if (predicate_->Evaluate(row, &eval).AsBool()) matches_.push_back(i);
    }
    return columns;
  }
  matches_.resize(n);
  std::iota(matches_.begin(), matches_.end(), 0u);
  if (n == 0 || !filter_.has_value()) return columns;
  for (const int c : filter_columns_) {
    static_cast<storage::ColumnAddress&>(
        batch_columns_[static_cast<std::size_t>(c)]) = columns.column(c);
  }
  const expr::BatchInput in{batch_columns_.data(),
                            static_cast<int>(batch_columns_.size())};
  filter_->Filter(in, &matches_, &scratch_, &eval);
  return columns;
}

Result<SimTime> UpdateCursor::StepPage(SimTime ready) {
  if (done()) return ready;
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                            db_->catalog().GetTable(table_));
  const storage::Schema& schema = info->schema;
  BufferPool& pool = db_->buffer_pool();

  const std::uint64_t p = next_page_++;
  const std::uint64_t lpn = info->first_lpn + p;
  SimTime t = ready;
  SMARTSSD_ASSIGN_OR_RETURN(
      auto page_and_time,
      pool.GetPage(lpn, t, info->first_lpn + info->page_count));
  t = page_and_time.second;

  SMARTSSD_ASSIGN_OR_RETURN(const storage::PageColumns columns,
                            MatchRows(*info, page_and_time.first));
  const std::uint16_t page_tuples = columns.tuple_count();
  const bool page_changed = !matches_.empty();

  // Re-encode the page from the rows MatchRows located, applying the
  // mutation to every match.
  if (page_changed) {
    builder_.Reset();
    expr::PageColumnsRowView row(&schema, &columns);
    auto match = matches_.begin();
    for (std::uint16_t i = 0; i < page_tuples; ++i) {
      row.Reset(i);
      row.CopyRecord(record_.data());
      if (match != matches_.end() && *match == i) {
        ++match;
        storage::TupleWriter writer(&schema, record_);
        mutate_(row, writer);
        ++stats_.rows_matched;
      }
      if (!builder_.Append(record_)) {
        return InternalError("update: rebuilt page overflowed");
      }
    }
  }

  const std::uint64_t cycles =
      page_tuples * kCyclesPerTuple +
      (page_changed ? page_tuples * kCyclesPerUpdatedTuple : 0);
  t = db_->host().Execute(cycles, t);

  if (page_changed) {
    SMARTSSD_ASSIGN_OR_RETURN(t, pool.WritePage(lpn, builder_.image(), t));
    ++stats_.pages_dirtied;
    SMARTSSD_RETURN_IF_ERROR(
        db_->RefoldZoneMap(table_, p, builder_.image(), &records_));
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
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                            db->catalog().GetTable(table));
  return AppendCursor(db, std::move(table), *info, row_count,
                      std::move(gen));
}

AppendCursor::AppendCursor(Database* db, std::string table,
                           const storage::TableInfo& info,
                           std::uint64_t row_count, storage::RowGenerator gen)
    : db_(db),
      table_(std::move(table)),
      gen_(std::move(gen)),
      target_rows_(row_count),
      builder_(&info.schema, info.layout, db->device().page_size()),
      record_(info.schema.tuple_size()) {}

Result<SimTime> AppendCursor::StepPage(SimTime ready) {
  if (done()) return ready;
  SMARTSSD_ASSIGN_OR_RETURN(storage::TableInfo* info,
                            db_->catalog().GetMutableTable(table_));
  const storage::Schema& schema = info->schema;
  const std::uint32_t capacity = info->tuples_per_page;
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

  // Each page starts from an empty image and a zeroed record: fields a
  // generator leaves unwritten read zero on a page's first new row.
  builder_.Reset();
  std::fill(record_.begin(), record_.end(), std::byte{0});
  auto append_serialized = [&]() -> Status {
    if (!builder_.Append(record_)) {
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
      row.CopyRecord(record_.data());
      SMARTSSD_RETURN_IF_ERROR(append_serialized());
    }
  }

  // Append new rows until the page is full or the batch is done. `gen_`
  // sees the global row index, so whole-table generators stay pure.
  std::uint64_t new_rows = 0;
  while (existing + new_rows < capacity && !done()) {
    storage::TupleWriter writer(&schema, record_);
    gen_(info->tuple_count + new_rows, writer);
    SMARTSSD_RETURN_IF_ERROR(append_serialized());
    ++new_rows;
    ++stats_.rows_appended;
  }
  SMARTSSD_CHECK_GT(new_rows, 0ULL);

  const std::uint64_t cycles = existing * kCyclesPerTuple +
                               new_rows * kCyclesPerUpdatedTuple;
  t = db_->host().Execute(cycles, t);

  const std::span<const std::byte> image = builder_.image();
  SMARTSSD_ASSIGN_OR_RETURN(t, pool.WritePage(lpn, image, t));
  ++stats_.pages_dirtied;
  info->tuple_count += new_rows;
  if (new_page) ++info->page_count;

  SMARTSSD_RETURN_IF_ERROR(
      db_->RefoldZoneMap(table_, page_index, image, &records_));
  stats_.end = t;
  return t;
}

}  // namespace smartssd::engine
