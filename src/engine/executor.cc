#include "engine/executor.h"

#include <optional>

#include "engine/query_task.h"

namespace smartssd::engine {

namespace {

Result<QueryResult> RunAlone(Database* db, const exec::QuerySpec& spec,
                             std::optional<ExecutionTarget> target,
                             SimTime start) {
  QueryTask task(db, &spec, target, start);
  SimTime end = start;
  return RunToCompletion(task, &end);
}

}  // namespace

QueryExecutor::QueryExecutor(Database* db) : db_(db) {
  SMARTSSD_CHECK(db != nullptr);
}

Result<QueryResult> QueryExecutor::Execute(const exec::QuerySpec& spec,
                                           ExecutionTarget target,
                                           SimTime start) {
  return RunAlone(db_, spec, target, start);
}

Result<QueryResult> QueryExecutor::ExecuteAuto(const exec::QuerySpec& spec,
                                               SimTime start) {
  return RunAlone(db_, spec, std::nullopt, start);
}

}  // namespace smartssd::engine
