#ifndef SMARTSSD_ENGINE_UPDATE_H_
#define SMARTSSD_ENGINE_UPDATE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "exec/kernel_mode.h"
#include "expr/batch.h"
#include "expr/expression.h"
#include "storage/page_codec.h"
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
//   * the table's zone map (if any) must describe every page image a
//     scan can read, so each writer refolds the page it writes
//     (Database::RefoldZoneMap).
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

// Page-granular resumable update pass: one StepPage call filters,
// mutates, and re-encodes one page, so a workload scheduler can
// interleave update work with queries at page granularity.
//
// Open compiles the predicate once against the table schema
// (expr::CompiledExpr), and StepPage runs it column-at-a-time over a
// dense selection of the page's rows through storage::PageColumns, as
// the scan kernel does. A predicate that does not batch-compile runs
// through the interpreter row by row instead, the rule PageProcessor
// follows when it degrades to kScalar; either way the surviving row ids
// are exactly the rows the mutation sees. The update's cycle charge is
// per tuple, so which of the two decides the matches moves no virtual
// time.
//
// A page with no match is neither re-encoded nor written. A page with
// one is rebuilt from the rows the filter's one storage::PageColumns
// open located (the mutation sees the page row, and an NSM page's slots
// are walked once) and re-encoded into the cursor's one
// storage::PageBuilder, so a pass allocates no page buffer and no
// record per rewritten page. The zone map refolds the page from the
// image the pool takes, so a scan between two pages of the pass prunes
// with exact ranges.
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
  // What decides the matches: kVectorized (the compiled batch filter),
  // or kScalar when the predicate did not batch-compile.
  exec::KernelMode kernel_mode() const {
    return predicate_ != nullptr && !filter_.has_value()
               ? exec::KernelMode::kScalar
               : exec::KernelMode::kVectorized;
  }

 private:
  UpdateCursor(Database* db, std::string table,
               const storage::TableInfo& info,
               const expr::Expression* predicate,
               TableUpdater::MutateFn mutate);

  // Opens `page` once as storage::PageColumns, sets matches_ to the rows
  // the predicate selects, in ascending order, and returns the columns
  // (which the rewrite reads: an NSM page's records sit in records_).
  Result<storage::PageColumns> MatchRows(const storage::TableInfo& info,
                                         std::span<const std::byte> page);

  Database* db_ = nullptr;
  std::string table_;
  const expr::Expression* predicate_ = nullptr;
  TableUpdater::MutateFn mutate_;
  std::uint64_t next_page_ = 0;
  std::uint64_t page_count_ = 0;
  TableUpdater::UpdateStats stats_;

  // The batch filter: the compiled predicate (nullopt when there is
  // none or it does not batch-compile), the columns it reads, and the
  // buffers it reuses from page to page.
  std::optional<expr::CompiledExpr> filter_;
  std::vector<int> filter_columns_;
  std::vector<expr::BatchColumn> batch_columns_;
  expr::BatchScratch scratch_;
  std::vector<const std::byte*> records_;  // NSM gather: match, rewrite,
                                           // refold
  expr::SelVec matches_;

  // The rewrite of a page with a match.
  storage::PageBuilder builder_;
  std::vector<std::byte> record_;
};

// Appends through the buffer pool into the table's reserved extent
// headroom (TableInfo::reserved_pages). Appends are host-only for the
// same transactional reason updates are. The partial last page is
// rebuilt in place (its rows copied out as records and re-encoded,
// like an update's); fresh pages come from the reserved extent, and the
// append fails with FAILED_PRECONDITION once the reservation is
// exhausted.
//
// Every page image written refolds its page of the live zone map, as
// an update's does; a fresh page grows the map.
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

// Resumable page-at-a-time append (see TableAppender). Every page it
// fills is encoded into the cursor's one storage::PageBuilder.
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
  AppendCursor(Database* db, std::string table,
               const storage::TableInfo& info, std::uint64_t row_count,
               storage::RowGenerator gen);

  Database* db_ = nullptr;
  std::string table_;
  storage::RowGenerator gen_;
  std::uint64_t target_rows_ = 0;
  TableAppender::AppendStats stats_;
  storage::PageBuilder builder_;
  std::vector<std::byte> record_;
  std::vector<const std::byte*> records_;  // NSM gather for the refold
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_UPDATE_H_
