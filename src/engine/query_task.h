#ifndef SMARTSSD_ENGINE_QUERY_TASK_H_
#define SMARTSSD_ENGINE_QUERY_TASK_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/placement.h"
#include "engine/planner.h"
#include "exec/page_processor.h"
#include "exec/predicate_range.h"
#include "exec/pushdown_program.h"
#include "exec/query_spec.h"
#include "smart/session_task.h"

namespace smartssd::engine {

// Resumable query execution. QueryTask is the one unit every caller
// runs: it binds the spec, places it as one or more scan fragments, and
// advances them one page (host path) or one session protocol unit
// (pushdown path) per Step(). That granularity is what lets a workload
// scheduler interleave many in-flight queries on the shared simulated
// resources; the blocking callers (QueryExecutor, ExecuteOnFleet) step
// one task alone through RunToCompletion.

// What one Step() of a task reports back to its driver.
struct StepOutcome {
  // Virtual time the step's work retired at — when the task next has
  // work ready. A scheduler clamps this to its own now (some steps
  // complete in the past: cached pages, pruned pages).
  SimTime at = 0;
  bool finished = false;
  // The task wants to OPEN a device session but no firmware thread
  // grant is free; nothing was issued. Re-Step() once a grant frees.
  bool waiting_for_grant = false;
};

// One host-side scan fragment (the conventional path) as a state
// machine: join build one inner page per step, then scan one outer page
// per step, then finalize. `bound` must outlive the task.
//
// The scan covers outer-table pages [first_page, first_page +
// page_count), clamped to the table (see ScanFragment). A proper
// sub-range of the table is one of several fragments and reports
// a *partial* result: per-page OpCounts are charged exactly as the
// whole-table scan charges those pages, while the Finish() emission
// counts and the per-query metrics bumps are left to QueryTask's merge
// (which re-synthesizes the canonical finish charge over the merged
// result).
class HostQueryTask {
 public:
  HostQueryTask(Database* db, const exec::BoundQuery* bound, SimTime start,
                std::uint64_t first_page, std::uint64_t page_count);
  ~HostQueryTask();
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(HostQueryTask);

  StepOutcome Step();
  bool finished() const { return state_ == State::kDone; }

  // Valid once finished(); moves the result out.
  Result<QueryResult> TakeResult();

 private:
  enum class State {
    kStart,
    kBuildRead,
    kBuildFinish,
    kPrepareScan,
    kScan,
    kFinish,
    kDone,
  };

  StepOutcome StepStart();
  StepOutcome StepBuildRead();
  StepOutcome StepBuildFinish();
  StepOutcome StepPrepareScan();
  StepOutcome StepScan();
  StepOutcome StepFinish();
  StepOutcome FailWith(const Status& error);
  void CloseSpanForError();

  Database* db_;
  const exec::BoundQuery* bound_;
  SimTime start_;
  obs::Tracer* tracer_ = nullptr;

  // Scan bounds over the outer table's page indices, clamped to the
  // table in the constructor; [0, page_count) for whole-table tasks.
  std::uint64_t scan_begin_ = 0;
  std::uint64_t scan_end_ = 0;
  bool partial_ = false;

  State state_ = State::kStart;
  QueryResult result_;
  std::optional<Result<QueryResult>> final_result_;
  obs::SpanId span_id_ = obs::kNoSpan;
  bool span_ended_ = false;

  // Join build state.
  std::optional<exec::JoinHashTableBuilder> builder_;
  SimTime io_done_ = 0;
  std::uint64_t build_page_ = 0;
  std::optional<exec::JoinHashTable> hash_table_;

  // Scan state.
  std::optional<exec::PageProcessor> processor_;
  exec::CpuCostParams host_params_{};
  std::uint64_t hash_entries_ = 0;
  const storage::ZoneMap* zone_map_ = nullptr;
  // The zone map the processor's batch-skip analysis was last armed
  // with; re-armed whenever a step observes the map changing (e.g. a
  // co-scheduled writer marking it stale destroys the old object).
  const storage::ZoneMap* armed_zone_map_ = nullptr;
  std::map<int, exec::ColumnRange> prune_ranges_;
  SimTime end_ = 0;
  SimTime scan_started_ = 0;
  std::uint64_t page_ = 0;
  std::uint64_t pages_scanned_ = 0;
};

// One device-side scan fragment (the pushdown path) as a state machine:
// one session protocol unit per step. A retryable device failure
// records on the circuit breaker and re-runs the fragment on the host
// path from the failure time. While the device's session thread pool is
// empty the task parks (waiting_for_grant outcome, no device traffic)
// instead of issuing an OPEN, and goes to the host path without a
// device attempt if the breaker is open when it finds no grant or
// resumes from a park.
// The page range mirrors HostQueryTask: it restricts the pushdown
// program to those pages (extent announcement, pruning, and zone-check
// charge all range-scoped); a proper sub-range of the table reports
// body-only OpCounts and re-runs only its own range on host fallback.
class DeviceQueryTask {
 public:
  DeviceQueryTask(Database* db, const exec::BoundQuery* bound,
                  SimTime start, std::uint64_t first_page,
                  std::uint64_t page_count);
  ~DeviceQueryTask();
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(DeviceQueryTask);

  StepOutcome Step();
  bool finished() const { return state_ == State::kDone; }

  Result<QueryResult> TakeResult();

 private:
  enum class State { kStart, kSession, kHostRerun, kDone };

  StepOutcome StepStart();
  StepOutcome StepSession();
  StepOutcome StepHostRerun();
  StepOutcome HandleDeviceError(const Status& error);
  StepOutcome FinishWithError(const Status& error);
  void CloseSpanForError();

  Database* db_;
  const exec::BoundQuery* bound_;
  SimTime start_;
  // Page range over the outer table and whether it is a proper
  // sub-range; see the class comment.
  std::uint64_t frag_first_ = 0;
  std::uint64_t frag_pages_ = ~0ull;
  bool partial_ = false;
  obs::Tracer* tracer_ = nullptr;

  State state_ = State::kStart;
  QueryResult result_;
  std::optional<Result<QueryResult>> final_result_;
  obs::SpanId span_id_ = obs::kNoSpan;
  bool span_ended_ = false;

  // Device-resident snapshot of the table's zone map, taken when the
  // session opens. A co-scheduled writer can mark the host-side map
  // stale (dropping the database's reference) or widen it (which then
  // widens a copy) mid-flight; the device prunes with the snapshot it
  // was shipped, which stays consistent with the pages the session
  // reads (writers only reach flash after a flush, and the dirty-page
  // gate refused the session if a flush was pending). Shared and
  // immutable, so shipping it copies nothing.
  std::shared_ptr<const storage::ZoneMap> device_zone_map_;
  std::optional<exec::PushdownProgram> program_;
  std::unique_ptr<smart::SessionTask> session_;
  bool session_started_ = false;
  // Set once the task parked for a session grant; on resuming it
  // re-checks the breaker before opening a session.
  bool parked_ = false;
  SimTime failed_at_ = 0;
  // Set when the task abandoned its park for a session grant because the
  // breaker opened: the query fell back without ever reaching the
  // device, so the stats must not count a device attempt.
  bool redispatched_without_attempt_ = false;
  Status device_error_ = Status::OK();
  std::optional<HostQueryTask> host_rerun_;
};

// A whole submitted query: binds the spec, places it, and runs it as the
// placement's ordered ScanFragments — one whole-table fragment on the
// pinned `target` or the side the database's policy picked (when
// `target` is nullopt), or adaptive's host-prefix/device-suffix pair.
// This is the unit the workload scheduler drives, what ExecuteOnFleet
// runs per partition, and what QueryExecutor runs.
//
// One Step() advances the earliest-ready unfinished fragment that is not
// parked on a session grant (lowest fragment index breaks ties), so
// fragments interleave on the shared resources exactly as independently
// scheduled queries would. A lone fragment's outcomes and result pass
// through untouched. Two or more merge, once all are done, in fixed
// fragment order through engine/partial_merge, and the merge charges the
// canonical finish emission (what a whole-table Finish() charges for the
// merged output) exactly once, so total OpCounts equal the whole-table
// run's byte for byte. `spec` must outlive the task (keep specs at
// stable addresses).
class QueryTask {
 public:
  QueryTask(Database* db, const exec::QuerySpec* spec,
            std::optional<ExecutionTarget> target, SimTime start);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(QueryTask);

  StepOutcome Step();
  bool finished() const { return state_ == State::kDone; }

  Result<QueryResult> TakeResult();

 private:
  enum class State { kPlan, kRun, kDone };

  struct Fragment {
    // Exactly one engaged, by the fragment's placement target.
    std::optional<HostQueryTask> host;
    std::optional<DeviceQueryTask> device;
    SimTime ready = 0;
    bool parked = false;  // waiting for a device session grant
    bool done = false;
    std::optional<Result<QueryResult>> result;
  };

  StepOutcome Plan();
  StepOutcome Merge();
  StepOutcome Finish(Result<QueryResult> result, StepOutcome outcome);

  Database* db_;
  const exec::QuerySpec* spec_;
  std::optional<ExecutionTarget> target_;
  SimTime start_;
  SimTime end_;  // latest fragment finish, where the merge starts

  State state_ = State::kPlan;
  std::optional<exec::BoundQuery> bound_;
  std::deque<Fragment> fragments_;  // deque: tasks are immovable
  std::optional<Result<QueryResult>> final_result_;
};

// Steps `task` alone until it finishes and returns its result; `*end` is
// when the last step retired. Alone, a task that parks for a session
// grant has no co-running query to free one, so the result is then
// RESOURCE_EXHAUSTED (no device traffic was issued).
Result<QueryResult> RunToCompletion(QueryTask& task, SimTime* end);

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_QUERY_TASK_H_
