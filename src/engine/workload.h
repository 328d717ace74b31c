#ifndef SMARTSSD_ENGINE_WORKLOAD_H_
#define SMARTSSD_ENGINE_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/ingest.h"
#include "engine/query_task.h"
#include "exec/query_spec.h"
#include "sim/clock.h"
#include "sim/event_queue.h"

namespace smartssd::engine {

// One query template a workload client submits. QuerySpec owns its
// predicate expression and is move-only, so configs move into the
// scheduler, which keeps each spec at a stable address for the bound
// query's lifetime. A closed/open-loop client runs every repetition off
// the one spec it was added with.
struct WorkloadQueryConfig {
  std::string client = "client";  // tracer lane + completion records
  exec::QuerySpec spec;
  // Fixed execution target; nullopt lets the database's placement
  // policy decide per query (with `hints`) at its admission time.
  std::optional<ExecutionTarget> target;
  PlanHints hints;
};

// The completion record of one workload query, on the virtual clock.
struct CompletedQuery {
  std::uint64_t id = 0;  // submission order, unique within the scheduler
  std::string client;
  std::string query_name;
  SimTime arrival = 0;   // submitted / generated
  SimTime admitted = 0;  // left the admission queue, task started
  SimTime end = 0;       // result delivered
  // Per-query failures land here (Result has no default state, so an
  // unfilled record reports InternalError).
  Result<QueryResult> result = InternalError("query not completed");

  SimDuration latency() const { return end - arrival; }
  SimDuration queue_wait() const { return admitted - arrival; }
};

// One ingest batch template a workload client submits repeatedly.
struct IngestClientConfig {
  std::string client = "ingest";
  IngestBatchSpec spec;
};

// The completion record of one ingest batch, on the virtual clock.
struct CompletedIngest {
  std::uint64_t id = 0;  // shares the query id space (submission order)
  std::string client;
  SimTime arrival = 0;
  SimTime end = 0;
  Result<IngestStats> result = InternalError("ingest not completed");

  SimDuration latency() const { return end - arrival; }
};

// Admission control: queries running concurrently (started, not yet
// complete). Arrivals beyond this wait in a FIFO queue — that wait is
// the backpressure signal (workload.queue_wait_ns).
inline constexpr int kMaxQueriesInFlight = 8;

// Drives N concurrent queries over one Database on a shared virtual
// clock. Each query is a resumable QueryTask; the scheduler owns a
// sim::EventQueue and advances whichever task has the earliest ready
// time, so in-flight queries interleave page-by-page (host path) and
// protocol-unit-by-protocol-unit (pushdown path) on the simulated
// resources — the concurrent-workload story the run-to-completion
// executor could not tell (its "co-running" queries serialized behind
// each other in every FIFO server).
//
// Determinism: same submissions -> same event order (the event queue
// breaks time ties FIFO) -> byte-identical completion records.
//
// Per-query latency lands in workload.latency_ns (plus a per-target
// breakdown) and queue wait in workload.queue_wait_ns; each client gets
// a tracer lane under the "workload" process with one span per query.
//
// A query without a pinned target is placed by the database's policy
// when its task first steps, at its admission time; the adaptive
// policy then sees the session grants that earlier admissions hold.
// A pushdown query parks at the host while the device's session thread
// pool is empty instead of eating an OPEN rejection.
class WorkloadScheduler {
 public:
  explicit WorkloadScheduler(Database* db);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(WorkloadScheduler);

  // One query arriving at virtual time `at`. Returns its id.
  std::uint64_t Submit(WorkloadQueryConfig config, SimTime at);

  // Closed-loop client: `count` queries back to back — the next arrives
  // `think_time` after the previous completes.
  void AddClosedLoopClient(WorkloadQueryConfig config, int count,
                           SimDuration think_time = 0,
                           SimTime first_arrival = 0);

  // Open-loop client: `count` queries at a fixed inter-arrival gap,
  // regardless of completions (arrival-rate driving; queue growth under
  // overload shows up as queue_wait).
  void AddOpenLoopClient(WorkloadQueryConfig config, int count,
                         SimDuration inter_arrival,
                         SimTime first_arrival = 0);

  // Closed-loop ingest client: `count` batches back to back, the next
  // arriving `think_time` after the previous completes. Ingest batches
  // are background writers: they bypass query admission control (they
  // never hold a query slot) but contend for the same simulated host
  // and device resources, which is exactly the interference the write
  // path is supposed to exert on query latency.
  void AddIngestClient(IngestClientConfig config, int count,
                       SimDuration think_time = 0, SimTime first_arrival = 0);

  // Runs to drain and returns completion records in completion order.
  // Call once. Errors only on scheduler-level deadlock (a bug); per-
  // query failures are inside their records.
  Result<std::vector<CompletedQuery>> Run();

  // Ingest completion records in completion order; valid after Run().
  const std::vector<CompletedIngest>& completed_ingests() const {
    return completed_ingests_;
  }

  int peak_in_flight() const { return peak_in_flight_; }

 private:
  struct Source {
    WorkloadQueryConfig config;
    obs::TrackId track = 0;
    bool closed_loop = false;
    int remaining = 0;        // closed-loop arrivals still to generate
    SimDuration think_time = 0;
  };

  struct Running {
    std::uint64_t id = 0;
    std::size_t source = 0;
    SimTime arrival = 0;
    SimTime admitted = 0;
    std::unique_ptr<QueryTask> task;
  };

  struct PendingArrival {
    std::size_t source = 0;
    SimTime arrival = 0;
    std::uint64_t id = 0;
  };

  struct IngestSource {
    IngestClientConfig config;
    obs::TrackId track = 0;
    int remaining = 0;  // arrivals still to generate
    SimDuration think_time = 0;
  };

  struct RunningIngest {
    std::uint64_t id = 0;
    std::size_t source = 0;
    SimTime arrival = 0;
    std::unique_ptr<IngestTask> task;
  };

  std::size_t AddSource(WorkloadQueryConfig config);
  void ScheduleArrival(std::size_t source, SimTime at, std::uint64_t id);
  void OnArrival(std::size_t source, SimTime arrival, std::uint64_t id);
  void StartQuery(std::size_t source, SimTime arrival, SimTime admitted,
                  std::uint64_t id);
  void ScheduleStep(std::shared_ptr<Running> q, SimTime at);
  void OnStep(const std::shared_ptr<Running>& q);
  void OnComplete(const std::shared_ptr<Running>& q, SimTime end);
  void TryUnpark();

  void ScheduleIngestArrival(std::size_t source, SimTime at,
                             std::uint64_t id);
  void ScheduleIngestStep(std::shared_ptr<RunningIngest> b, SimTime at);
  void OnIngestStep(const std::shared_ptr<RunningIngest>& b);
  void OnIngestComplete(const std::shared_ptr<RunningIngest>& b,
                        SimTime end);

  Database* db_;
  sim::Clock clock_;
  sim::EventQueue events_;
  obs::Tracer* tracer_ = nullptr;

  std::deque<Source> sources_;  // stable addresses for bound specs
  std::deque<IngestSource> ingest_sources_;  // stable batch-spec addresses
  std::deque<PendingArrival> admission_queue_;
  std::deque<std::shared_ptr<Running>> parked_;  // waiting for a grant
  std::vector<CompletedQuery> completed_;
  std::vector<CompletedIngest> completed_ingests_;
  std::uint64_t next_id_ = 1;
  std::uint64_t expected_ = 0;  // total queries this workload will run
  std::uint64_t expected_ingests_ = 0;
  int ingest_in_flight_ = 0;
  int in_flight_ = 0;
  int peak_in_flight_ = 0;
  bool ran_ = false;
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_WORKLOAD_H_
