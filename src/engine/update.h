#ifndef SMARTSSD_ENGINE_UPDATE_H_
#define SMARTSSD_ENGINE_UPDATE_H_

#include <functional>
#include <string>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "expr/expression.h"
#include "storage/table_loader.h"
#include "storage/tuple.h"

namespace smartssd::engine {

// Host-side updates through the buffer pool. Section 4.3: "queries with
// any updates cannot be processed in the SSD without appropriate
// coordination with the DBMS transaction manager" — so updates here are
// host-only by design. Their side effects are exactly the coherence
// hazards the pushdown rules guard against:
//
//   * updated pages sit dirty in the buffer pool, which makes the
//     planner and executor refuse pushdown on the table until a flush
//     writes them back;
//   * the table's zone map (if any) goes stale, since its statistics
//     may no longer bound the stored values; Database::FlushAll
//     rebuilds it so pushdown eligibility recovers.
class TableUpdater {
 public:
  explicit TableUpdater(Database* db);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(TableUpdater);

  struct UpdateStats {
    std::uint64_t rows_matched = 0;
    std::uint64_t pages_dirtied = 0;
    SimTime end = 0;
  };

  using MutateFn = std::function<void(const expr::RowView& row,
                                      storage::TupleWriter& writer)>;

  // Applies `mutate` to every row satisfying `predicate` (nullptr = all
  // rows). The callback sees the current row and writes replacement
  // fields through the TupleWriter (unwritten fields keep their value).
  // Runs a whole update pass in one call; UpdateCursor below is the
  // resumable page-at-a-time form this delegates to.
  Result<UpdateStats> Update(const std::string& table,
                             const expr::Expression* predicate,
                             const MutateFn& mutate, SimTime start = 0);

 private:
  Database* db_;
};

// Page-granular resumable update pass: one StepPage call decodes,
// mutates, and re-encodes one page, so a workload scheduler can
// interleave update work with queries at page granularity. When the
// last page has been processed and any row matched, the table's zone
// map is marked stale.
class UpdateCursor {
 public:
  static Result<UpdateCursor> Open(Database* db, std::string table,
                                   const expr::Expression* predicate,
                                   TableUpdater::MutateFn mutate);

  UpdateCursor(UpdateCursor&&) = default;
  UpdateCursor& operator=(UpdateCursor&&) = default;
  UpdateCursor(const UpdateCursor&) = delete;
  UpdateCursor& operator=(const UpdateCursor&) = delete;

  bool done() const { return next_page_ >= page_count_; }
  // Processes the next page; returns the virtual time the page's work
  // (CPU + any pool I/O) completes. No-op past the end.
  Result<SimTime> StepPage(SimTime ready);

  const TableUpdater::UpdateStats& stats() const { return stats_; }

 private:
  UpdateCursor() = default;

  Database* db_ = nullptr;
  std::string table_;
  const expr::Expression* predicate_ = nullptr;
  TableUpdater::MutateFn mutate_;
  std::uint64_t next_page_ = 0;
  std::uint64_t page_count_ = 0;
  TableUpdater::UpdateStats stats_;
};

// Appends through the buffer pool into the table's reserved extent
// headroom (TableInfo::reserved_pages). Appends are host-only for the
// same transactional reason updates are. The partial last page is
// rebuilt in place; fresh pages come from the reserved extent, and the
// append fails with FAILED_PRECONDITION once the reservation is
// exhausted.
//
// Zone-map maintenance is widen-on-append: every page image written is
// folded into the live zone map (ranges only grow, so pruning stays
// sound without a rebuild).
class TableAppender {
 public:
  explicit TableAppender(Database* db);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(TableAppender);

  struct AppendStats {
    std::uint64_t rows_appended = 0;
    std::uint64_t pages_dirtied = 0;
    SimTime end = 0;
  };

  // Appends `row_count` rows; `gen` is called with GLOBAL row indexes
  // (tuple_count, tuple_count + 1, ...), so generators defined over the
  // whole table stay pure across appends.
  Result<AppendStats> Append(const std::string& table,
                             std::uint64_t row_count,
                             const storage::RowGenerator& gen,
                             SimTime start = 0);

 private:
  Database* db_;
};

// Resumable page-at-a-time append (see TableAppender).
class AppendCursor {
 public:
  static Result<AppendCursor> Open(Database* db, std::string table,
                                   std::uint64_t row_count,
                                   storage::RowGenerator gen);

  AppendCursor(AppendCursor&&) = default;
  AppendCursor& operator=(AppendCursor&&) = default;
  AppendCursor(const AppendCursor&) = delete;
  AppendCursor& operator=(const AppendCursor&) = delete;

  bool done() const { return stats_.rows_appended >= target_rows_; }
  // Fills (or finishes) one page with appended rows.
  Result<SimTime> StepPage(SimTime ready);

  const TableAppender::AppendStats& stats() const { return stats_; }

 private:
  AppendCursor() = default;

  Database* db_ = nullptr;
  std::string table_;
  storage::RowGenerator gen_;
  std::uint64_t target_rows_ = 0;
  TableAppender::AppendStats stats_;
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_UPDATE_H_
