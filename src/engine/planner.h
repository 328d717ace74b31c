#ifndef SMARTSSD_ENGINE_PLANNER_H_
#define SMARTSSD_ENGINE_PLANNER_H_

#include <optional>
#include <string>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "exec/query_spec.h"

namespace smartssd::engine {

struct PlanDecision {
  ExecutionTarget target = ExecutionTarget::kHost;
  std::string reason;
  double est_host_seconds = 0;
  double est_smart_seconds = 0;
};

// Below this resident budget the hybrid join degenerates (partitions
// keep exceeding the grant past the recursion limit); the planner
// routes such queries to the host instead.
inline constexpr std::uint64_t kMinJoinBudgetBytes = 4096;

// Resolves the memory budget a pushdown join of `bound` on `db` would
// run under: the configured knob (options().join_spill.budget_bytes)
// when set; otherwise 0 (unconstrained simple hash join) while the
// estimated hash table plus streaming overhead fits free device DRAM;
// otherwise a budget derived from the free DRAM, so an oversized build
// engages the hybrid spill path instead of falling off the old routing
// cliff. Returns 0 for non-joins and non-smart devices. Both the
// planner's cost model and DeviceQueryTask use this, so the predicted
// mode always matches what the program actually runs.
std::uint64_t ResolveJoinBudget(const Database& db,
                                const exec::BoundQuery& bound);

// Decides whether to run a query the usual way or push it into the
// Smart SSD. Encodes the rules Section 4.3 lays out:
//
//   1. no smart runtime -> host (trivially);
//   2. dirty pages of any involved table in the buffer pool -> host
//      (the device would compute over stale data);
//   3. the join's resident memory must fit device DRAM: the whole hash
//      table in unconstrained mode, the spill budget in hybrid mode —
//      and a budget below the spill floor goes to the host outright;
//   4. data already mostly cached -> host (pushdown would re-read flash
//      for pages RAM already holds);
//   5. otherwise, estimated cost decides: each path is a pipeline whose
//      elapsed time is the max of its stage times (I/O, CPU, result
//      transfer). There are no column statistics, so the cost model
//      assumes one fixed share of outer tuples passes a predicate.
//
// Plus one health rule after them: a query the rules send to the device
// goes to the host while the database's circuit breaker is open
// (repeated pushdown session failures, still in cool-down at virtual
// time `now`). It is consulted last because past the cool-down it
// admits the one half-open probe, which must be a device run.
class PushdownPlanner {
 public:
  explicit PushdownPlanner(Database* db);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(PushdownPlanner);

  Result<PlanDecision> Decide(const exec::BoundQuery& bound,
                              SimTime now = 0) const;

  // The cost submodel, exposed for tests and ablations: estimated
  // elapsed seconds for each path.
  double EstimateHostSeconds(const exec::BoundQuery& bound) const;
  double EstimateSmartSeconds(const exec::BoundQuery& bound) const;

  // The hard device-eligibility constraints — rules 1 to 3, without the
  // breaker's (mutating) bypass check or the cost heuristics — as a
  // pure predicate, shared by Decide() and the adaptive placement
  // policy. Returns the refusal reason, or nullopt when the device may
  // legally run the query.
  std::optional<std::string> DeviceConstraint(
      const exec::BoundQuery& bound) const;

 private:
  exec::OpCounts EstimateCounts(const exec::BoundQuery& bound,
                                exec::OpCounts* build_counts) const;

  Database* db_;
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_PLANNER_H_
