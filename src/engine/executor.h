#ifndef SMARTSSD_ENGINE_EXECUTOR_H_
#define SMARTSSD_ENGINE_EXECUTOR_H_

#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "exec/query_spec.h"

namespace smartssd::engine {

// A completed query: real output rows (packed fixed-width, per
// OutputSchema), decoded aggregate values for aggregate queries, and the
// measured timeline/counters.
struct QueryResult {
  storage::Schema output_schema;
  std::vector<std::byte> rows;
  std::vector<std::int64_t> agg_values;
  QueryStats stats;

  std::uint64_t row_count() const {
    const std::uint32_t width = output_schema.tuple_size();
    return width == 0 ? 0 : rows.size() / width;
  }
};

// Runs one query at a time, to completion, either the conventional way
// (pages to the host, operators on the Xeons) or through the Smart SSD's
// session protocol (the paper's "special path in SQL Server", Section
// 4.1.2). Both paths execute the identical PageProcessor kernel over
// identical bytes, so they must produce identical results — a property
// the test suite checks — while their timelines differ according to the
// data path and processor the work actually used. Each entry point runs
// one QueryTask through RunToCompletion (engine/query_task.h); a
// pushdown that finds every session grant held returns
// RESOURCE_EXHAUSTED without touching the device.
//
// Degraded execution: when a pushdown session dies of a *device* fault
// (uncorrectable read, reset, rejected OPEN, stalled GETs, transfer
// error), Execute/ExecuteAuto transparently re-run the query on the
// host path from the failure's virtual time, producing byte-identical
// results; stats.fell_back records it, and the database's circuit
// breaker learns so the planner routes around a persistently failing
// device. Semantic refusals (e.g. dirty pages — kFailedPrecondition)
// still propagate: re-running those on the host silently would mask an
// engine bug the caller asked to see.
class QueryExecutor {
 public:
  explicit QueryExecutor(Database* db);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(QueryExecutor);

  Result<QueryResult> Execute(const exec::QuerySpec& spec,
                              ExecutionTarget target, SimTime start = 0);

  // Lets the database's placement policy pick the target (by default
  // the pushdown planner's Section 4.3 rules), then executes. The
  // decision taken is in the result's stats.target.
  Result<QueryResult> ExecuteAuto(const exec::QuerySpec& spec,
                                  SimTime start = 0);

 private:
  Database* db_;
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_EXECUTOR_H_
