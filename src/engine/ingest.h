#ifndef SMARTSSD_ENGINE_INGEST_H_
#define SMARTSSD_ENGINE_INGEST_H_

#include <optional>
#include <string>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/query_task.h"
#include "engine/update.h"
#include "expr/expression.h"
#include "storage/table_loader.h"

namespace smartssd::engine {

// One ingest batch: an optional in-place update pass followed by an
// optional append run, then a flush of the dirtied pages, which ends
// the batch. All phases are host-only (Section 4.3 rules writes out of
// the device), so while a batch is in flight its dirty pages gate
// pushdown on the table; the flush phase is what hands eligibility
// back.
struct IngestBatchSpec {
  std::string table;

  // Update phase, run when `with_update` is set. `update_predicate` may
  // be null (= all rows); it is borrowed and must outlive the batch.
  bool with_update = false;
  const expr::Expression* update_predicate = nullptr;
  TableUpdater::MutateFn mutate;

  // Append phase, run when `append_rows` > 0. The generator sees global
  // row indexes (see TableAppender::Append).
  std::uint64_t append_rows = 0;
  storage::RowGenerator append_gen;
};

struct IngestStats {
  std::uint64_t rows_updated = 0;
  std::uint64_t rows_appended = 0;
  std::uint64_t pages_dirtied = 0;
  std::uint64_t pages_flushed = 0;
  SimTime end = 0;
};

// Resumable ingest batch: one page of write work per Step() (one page
// updated, one page of appends, or one page flushed), so the workload
// scheduler can interleave ingest with scan and pushdown queries at the
// same granularity QueryTask gives it. `spec` must outlive the task.
class IngestTask {
 public:
  IngestTask(Database* db, const IngestBatchSpec* spec, SimTime start);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(IngestTask);

  StepOutcome Step();
  bool finished() const { return state_ == State::kDone; }

  // Valid once finished(); moves the result out.
  Result<IngestStats> TakeResult();

 private:
  enum class State { kStart, kUpdate, kAppend, kFlush, kDone };

  StepOutcome FailWith(const Status& error);

  Database* db_;
  const IngestBatchSpec* spec_;
  SimTime t_;

  State state_ = State::kStart;
  std::optional<UpdateCursor> update_;
  std::optional<AppendCursor> append_;
  IngestStats stats_;
  std::optional<Result<IngestStats>> final_result_;
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_INGEST_H_
