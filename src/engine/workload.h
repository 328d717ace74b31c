#ifndef SMARTSSD_ENGINE_WORKLOAD_H_
#define SMARTSSD_ENGINE_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/ingest.h"
#include "engine/query_task.h"
#include "exec/query_spec.h"

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
  // policy decide per query at its admission time.
  std::optional<ExecutionTarget> target;
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

// Drives concurrent queries and ingest batches over one Database on a
// shared virtual clock. Each query is a resumable QueryTask and each
// batch an IngestTask; the scheduler keeps one heap of typed events (a
// client's arrival, or a task's next step) and runs the earliest, so
// in-flight work interleaves page by page (host path) and protocol unit
// by protocol unit (pushdown path) on the simulated resources — the
// concurrent-workload story the run-to-completion executor could not
// tell (its "co-running" queries serialized behind each other in every
// FIFO server).
//
// Determinism: events run in (virtual time, scheduling sequence) order,
// so same-time events run in the order they were scheduled, and the
// same submissions give byte-identical completion records.
//
// Per-query latency lands in workload.latency_ns (plus a per-target
// breakdown) and queue wait in workload.queue_wait_ns; each client gets
// a tracer lane under the "workload" process with one span per query or
// batch.
//
// A query without a pinned target is placed by the database's policy
// when its task first steps, at its admission time; the adaptive
// policy then sees the session grants that earlier admissions hold.
// A pushdown fragment parks at the host while the device's session
// thread pool is empty instead of eating an OPEN rejection, and the
// scheduler wakes it when another query's step frees a grant.
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
  using ClientConfig = std::variant<WorkloadQueryConfig, IngestClientConfig>;

  // One source of arrivals: a query or an ingest batch template, the
  // closed-loop arrivals it has still to generate, and the think time
  // before each of them.
  struct Client {
    ClientConfig config;
    obs::TrackId track = 0;
    int remaining = 0;
    SimDuration think_time = 0;
  };

  // One arrival, from its event to its completion record. A query gets
  // its task when admitted, an ingest batch when it arrives.
  struct Task {
    std::uint64_t id = 0;
    Client* client = nullptr;
    SimTime arrival = 0;
    SimTime admitted = 0;
    std::unique_ptr<QueryTask> query;
    std::unique_ptr<IngestTask> ingest;
  };

  // A client's arrival or a task's next step, at virtual time `at`.
  struct Event {
    enum class Kind { kArrival, kStep };
    SimTime at = 0;
    std::uint64_t seq = 0;  // scheduling order: breaks time ties FIFO
    Kind kind = Kind::kArrival;
    std::unique_ptr<Task> task;

    bool operator>(const Event& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  Client* AddClient(ClientConfig config, int remaining,
                    SimDuration think_time);
  void AddClosedLoop(ClientConfig config, int count, SimDuration think_time,
                     SimTime first_arrival);
  std::uint64_t ScheduleArrival(Client* client, SimTime at);
  void Schedule(Event::Kind kind, std::unique_ptr<Task> task, SimTime at);
  void OnArrival(std::unique_ptr<Task> task);
  void StartQuery(std::unique_ptr<Task> task, SimTime admitted);
  void OnStep(std::unique_ptr<Task> task);
  void RecordQuery(const Task& task, SimTime end);
  void RecordIngest(const Task& task, SimTime end);
  void TryUnpark();

  Database* db_;
  obs::Tracer* tracer_ = nullptr;

  std::deque<Client> clients_;  // stable addresses for bound specs
  std::vector<Event> events_;   // a min-heap: std::greater on Event
  std::deque<std::unique_ptr<Task>> admission_queue_;
  std::deque<std::unique_ptr<Task>> parked_;  // waiting for a grant
  std::vector<CompletedQuery> completed_;
  std::vector<CompletedIngest> completed_ingests_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t expected_ = 0;  // queries and batches this workload runs
  int in_flight_ = 0;
  int peak_in_flight_ = 0;
  bool ran_ = false;
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_WORKLOAD_H_
