#ifndef SMARTSSD_CHECK_RESULT_COMPARE_H_
#define SMARTSSD_CHECK_RESULT_COMPARE_H_

// Byte-exact comparison of query outputs across execution
// configurations. The engine's core promise (Section 4.1.2: both paths
// run the identical kernel over identical bytes) means any divergence —
// a different aggregate, a missing row, a reordered projection — is a
// bug, so the comparison is memcmp-strict and the error message decodes
// the first differing row for the human reading the failure.

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"
#include "engine/fleet.h"
#include "exec/cost_model.h"
#include "storage/schema.h"

namespace smartssd::check {

// One execution's observable output, normalized across the single-
// database and fleet entry points.
struct ExecutionOutput {
  std::string config;  // which configuration produced it
  storage::Schema schema;
  std::vector<std::byte> rows;
  std::vector<std::int64_t> aggs;
  // Operation counts drive the cost model, so kernel rewrites must keep
  // them stable too. Only populated by FromQuery (fleet runs shard
  // pages across devices, so per-device counts are not comparable to a
  // single-database run).
  exec::OpCounts counts;

  std::uint64_t row_count() const {
    const std::uint32_t width = schema.tuple_size();
    return width == 0 ? 0 : rows.size() / width;
  }
};

ExecutionOutput FromQuery(std::string config,
                          const engine::QueryResult& result);
ExecutionOutput FromFleet(std::string config,
                          const engine::FleetQueryResult& result);

// Renders one packed row of `schema` as "(v0, v1, ...)".
std::string RenderRow(const storage::Schema& schema, const std::byte* row);

// OK iff the outputs are byte-identical (schema widths, aggregate
// values, row bytes). The error message names both configs and the
// first point of divergence.
Status CompareOutputs(const ExecutionOutput& expected,
                      const ExecutionOutput& actual);

// OK iff the two executions charged identical operation counts. Only
// meaningful between configurations that see the same pages and tuples
// (same layout, no pruning differences) — e.g. the scalar and
// vectorized kernels over the same unpruned database.
Status CompareCounts(const ExecutionOutput& expected,
                     const ExecutionOutput& actual);

}  // namespace smartssd::check

#endif  // SMARTSSD_CHECK_RESULT_COMPARE_H_
