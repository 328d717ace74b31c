#include "engine/executor.h"

#include "engine/query_task.h"

namespace smartssd::engine {

QueryExecutor::QueryExecutor(Database* db) : db_(db) {
  SMARTSSD_CHECK(db != nullptr);
}

Result<QueryResult> QueryExecutor::Execute(const exec::QuerySpec& spec,
                                           ExecutionTarget target,
                                           SimTime start) {
  SMARTSSD_ASSIGN_OR_RETURN(const exec::BoundQuery bound,
                            exec::Bind(spec, db_->catalog()));
  if (target == ExecutionTarget::kSmartSsd) {
    return ExecuteDeviceWithFallback(bound, start);
  }
  return ExecuteOnHost(bound, start);
}

Result<QueryResult> QueryExecutor::ExecuteAuto(const exec::QuerySpec& spec,
                                               const PlanHints& hints,
                                               SimTime start) {
  // Routed by the database's placement policy (DatabaseOptions::
  // placement) through the resumable QueryTask, so split placements
  // work from the blocking path too. Under the default kCostModel
  // policy the task issues the identical Bind + planner.Decide +
  // host/device sequence this function historically inlined.
  QueryTask task(db_, &spec, /*target=*/std::nullopt, hints, start,
                 /*wait_for_grant=*/false);
  while (!task.finished()) task.Step();
  return task.TakeResult();
}

// The blocking entry points drive the resumable tasks to completion in a
// tight loop: the task then issues the identical resource-call sequence
// the old monolithic bodies did, so these paths are byte-identical to
// the pre-task executor — a property the differential and bench identity
// tests pin down. Interleaved execution lives in WorkloadScheduler.

Result<QueryResult> QueryExecutor::ExecuteDeviceWithFallback(
    const exec::BoundQuery& bound, SimTime start) {
  DeviceQueryTask task(db_, &bound, start, /*wait_for_grant=*/false);
  while (!task.finished()) task.Step();
  return task.TakeResult();
}

Result<QueryResult> QueryExecutor::ExecuteOnHost(
    const exec::BoundQuery& bound, SimTime start) {
  HostQueryTask task(db_, &bound, start);
  while (!task.finished()) task.Step();
  return task.TakeResult();
}

}  // namespace smartssd::engine
