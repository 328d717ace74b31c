#ifndef SMARTSSD_ENGINE_PLACEMENT_H_
#define SMARTSSD_ENGINE_PLACEMENT_H_

// Placement: where a query's scan runs when no target is pinned (a
// pinned side is WorkloadQueryConfig::target or QueryExecutor::Execute).
// Two policies:
//
//   kCostModel (the default) is the pushdown planner's Section 4.3
//   decision, host or device, chosen once per query by its rules and
//   cost estimates.
//
//   kAdaptive reads only the database it routes on, in this order:
//   a hard device constraint (no smart runtime, dirty pages, join DRAM)
//   -> host; session-grant pool empty -> the whole query to the host;
//   circuit breaker open -> host; a splittable scan -> host/device
//   fragments weighted by the cost model; otherwise the device.
//
// A split scan becomes an ordered list of ScanFragments — contiguous
// page ranges of the outer table, each independently placeable — whose
// partial results merge in fixed fragment order through
// engine/partial_merge. Everything a policy reads lives on the virtual
// clock, so a fixed arrival trace yields byte-identical routing
// decisions and results run-to-run.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "engine/planner.h"
#include "exec/query_spec.h"

namespace smartssd::engine {

// One placeable unit of a scan: pages [first_page, first_page +
// page_count) of the outer table, routed to one side. Fragment order is
// page order; the merge consumes partials in that order.
struct ScanFragment {
  std::uint64_t first_page = 0;
  std::uint64_t page_count = 0;
  ExecutionTarget target = ExecutionTarget::kHost;
};

struct PlacementDecision {
  ExecutionTarget target = ExecutionTarget::kHost;
  // When set, run the scan as `fragments` (ordered by page range) and
  // merge partials; `target` then summarizes as kSmartSsd when any
  // fragment goes to the device.
  bool split = false;
  std::vector<ScanFragment> fragments;
  std::string reason;
};

// True when the query's scan can run as independently placed fragments
// with exact OpCounts reassembly: no join (the hybrid join does real
// finish-time work per fragment), no top-N (its finish emission charge
// depends on per-fragment heap contents), at least two outer pages, and
// scatter-gather-mergeable. Ineligible queries fall back to whole-query
// routing, so every spec shape stays executable under every policy.
bool SplittableScan(const exec::BoundQuery& bound);

// Applies `policy` to one query at virtual time `now`. Both policies
// check the hard device constraints before the circuit breaker, and
// consult the breaker's (mutating) bypass check only for a query that
// would otherwise reach the device, so a half-open probe is never spent
// on a host run.
Result<PlacementDecision> DecidePlacement(Database* db,
                                          const exec::BoundQuery& bound,
                                          const PlanHints& hints,
                                          PlacementPolicyKind policy,
                                          SimTime now);

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_PLACEMENT_H_
