#ifndef SMARTSSD_ENGINE_PARTIAL_MERGE_H_
#define SMARTSSD_ENGINE_PARTIAL_MERGE_H_

// Deterministic merge of per-partition partial query results, shared by
// the fleet's scatter-gather entry point (ExecuteOnFleet, engine/fleet)
// and QueryTask (engine/query_task), which merges the page-range
// fragments of a split scan of one table. The merge is a pure function of the partials *in the
// order given*, so a caller that fixes that order by partition id
// (never by completion order) gets byte-identical output no matter how
// the partitions' executions interleaved or fell back.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"
#include "exec/query_spec.h"
#include "storage/schema.h"

namespace smartssd::engine {

// Coordinator-side merge cost, charged to the host CPU after the last
// partial arrives: touch every partial row once.
inline constexpr std::uint64_t kMergeCyclesPerRow = 40;
inline constexpr std::uint64_t kMergeCyclesPerByte = 1;

inline std::uint64_t MergeCostCycles(std::uint64_t rows,
                                     std::uint64_t bytes) {
  return rows * kMergeCyclesPerRow + bytes * kMergeCyclesPerByte;
}

// A spec is scatter-gather-mergeable unless it is a top-N whose ORDER BY
// column is missing from the projection (the coordinator re-selects the
// global top k from the merged rows, so it must see the keys).
Status ValidateMergeable(const exec::QuerySpec& spec);

struct MergedPartials {
  std::vector<std::byte> rows;
  std::vector<std::int64_t> agg_values;  // scalar aggregates, merged
  std::uint64_t input_rows = 0;   // across all partials, for merge cost
  std::uint64_t input_bytes = 0;
};

// Merges partials (all sharing `output_schema`) positionally:
//   * scalar aggregates combine by their function (SUM/COUNT add,
//     MIN/MAX fold);
//   * GROUP BY results merge key-wise (emission in memcmp key order,
//     matching the executors' GroupTable order);
//   * projections concatenate in the given partial order;
//   * top-N re-selects the global top k over the concatenation.
// `partials` must be non-empty and ordered by partition id.
MergedPartials MergePartialResults(
    const exec::QuerySpec& spec, const storage::Schema& output_schema,
    const std::vector<const QueryResult*>& partials);

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_PARTIAL_MERGE_H_
