#ifndef SMARTSSD_ENGINE_QUERY_TASK_H_
#define SMARTSSD_ENGINE_QUERY_TASK_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

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

// Resumable query execution. The blocking QueryExecutor entry points are
// thin loops over the task classes below, which advance a query one page
// (host path) or one session protocol unit (pushdown path) per Step().
// That granularity is what lets a workload scheduler interleave many
// in-flight queries on the shared simulated resources; driven solo in a
// tight loop, each task issues the identical resource-call sequence the
// old monolithic executor bodies did, so single-query timelines are
// byte-identical by construction.

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

// The conventional path (QueryExecutor::ExecuteOnHost) as a state
// machine: join build one inner page per step, then scan one outer page
// per step, then finalize. `bound` must outlive the task.
//
// The scan covers outer-table pages [first_page, first_page +
// page_count), clamped to the table; the defaults cover all of it. A
// proper sub-range of the table is a split-scan fragment and reports a
// *partial* result: per-page OpCounts are charged exactly as the
// whole-table scan charges those pages, while the Finish() emission
// counts and the per-query metrics bumps are left to the split
// coordinator (which re-synthesizes the canonical finish charge over
// the merged result).
class HostQueryTask {
 public:
  HostQueryTask(Database* db, const exec::BoundQuery* bound, SimTime start,
                std::uint64_t first_page = 0,
                std::uint64_t page_count = ~0ull);
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
  StageBreakdown stage_before_;
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

// The pushdown path as a state machine: one session protocol unit per
// step. A retryable device failure records on the circuit breaker and
// re-runs the query on the host path from the failure time. With
// `wait_for_grant` set the task parks (waiting_for_grant outcome, no
// device traffic) instead of issuing an OPEN while the device's session
// thread pool is empty, and goes to the host path without a device
// attempt if the breaker is open when it finds no grant or resumes from
// a park; the blocking executor and ExecuteOnFleet pass false and eat
// the rejection, matching the old behavior.
// The page range mirrors HostQueryTask: it restricts the pushdown
// program to those pages (extent announcement, pruning, and zone-check
// charge all range-scoped); a proper sub-range of the table reports
// body-only OpCounts and re-runs only its own range on host fallback.
class DeviceQueryTask {
 public:
  DeviceQueryTask(Database* db, const exec::BoundQuery* bound,
                  SimTime start, bool wait_for_grant,
                  std::uint64_t first_page = 0,
                  std::uint64_t page_count = ~0ull);
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
  bool wait_for_grant_;
  // Page range over the outer table (defaults cover it whole) and
  // whether it is a proper sub-range; see the class comment.
  std::uint64_t frag_first_ = 0;
  std::uint64_t frag_pages_ = ~0ull;
  bool partial_ = false;
  obs::Tracer* tracer_ = nullptr;

  State state_ = State::kStart;
  QueryResult result_;
  std::optional<Result<QueryResult>> final_result_;
  StageBreakdown stage_before_;       // device attempt
  StageBreakdown outer_stage_before_;  // whole query incl. fallback
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

// A split scan: the query's page range partitioned into ScanFragments,
// each run by its own host/device task in partial mode, concurrently on
// the virtual timeline. One Step() advances the earliest-ready
// unfinished fragment by one step (lowest fragment index breaks ties),
// so fragments interleave on the shared resources exactly as two
// independently scheduled queries would. When all fragments finish,
// partials merge in fixed fragment order through engine/partial_merge,
// and the coordinator charges the canonical finish emission (what the
// monolithic path's Finish() charges for the merged output) exactly
// once — total OpCounts equal the monolithic run's byte-for-byte.
class SplitScanTask {
 public:
  SplitScanTask(Database* db, const exec::BoundQuery* bound,
                const std::vector<ScanFragment>& fragments, SimTime start,
                bool wait_for_grant);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(SplitScanTask);

  StepOutcome Step();
  bool finished() const { return done_; }

  Result<QueryResult> TakeResult();

 private:
  struct Fragment {
    ScanFragment placement;
    // Exactly one engaged, by placement.target.
    std::optional<HostQueryTask> host;
    std::optional<DeviceQueryTask> device;
    SimTime ready = 0;
    bool parked = false;  // waiting for a device session grant
    bool done = false;
    std::optional<Result<QueryResult>> result;
  };

  StepOutcome StepFragment(Fragment& fragment);
  StepOutcome Merge();

  Database* db_;
  const exec::BoundQuery* bound_;
  SimTime start_;
  StageBreakdown stage_before_;
  std::deque<Fragment> fragments_;  // deque: tasks are immovable
  bool done_ = false;
  SimTime end_ = 0;
  std::optional<Result<QueryResult>> final_result_;
};

// A whole submitted query: binds the spec, picks the placement (the
// pinned `target`, or when it is nullopt the database's placement
// policy with `hints` — possibly a split across both sides), and
// delegates to the host, device, or split-scan task. This is the unit
// the workload scheduler drives, what ExecuteOnFleet runs per
// partition, and what QueryExecutor::ExecuteAuto runs. `spec` must
// outlive the task (keep specs at stable addresses).
class QueryTask {
 public:
  QueryTask(Database* db, const exec::QuerySpec* spec,
            std::optional<ExecutionTarget> target, const PlanHints& hints,
            SimTime start, bool wait_for_grant);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(QueryTask);

  StepOutcome Step();
  bool finished() const { return state_ == State::kDone; }
  SimTime start() const { return start_; }
  const exec::QuerySpec& spec() const { return *spec_; }

  Result<QueryResult> TakeResult();

 private:
  enum class State { kPlan, kRun, kDone };

  Database* db_;
  const exec::QuerySpec* spec_;
  SimTime start_;
  bool wait_for_grant_;
  std::optional<ExecutionTarget> target_;
  PlanHints hints_;

  State state_ = State::kPlan;
  std::optional<exec::BoundQuery> bound_;
  std::optional<HostQueryTask> host_task_;
  std::optional<DeviceQueryTask> device_task_;
  std::optional<SplitScanTask> split_task_;
  std::optional<Result<QueryResult>> final_result_;
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_QUERY_TASK_H_
