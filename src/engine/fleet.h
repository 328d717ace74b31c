#ifndef SMARTSSD_ENGINE_FLEET_H_
#define SMARTSSD_ENGINE_FLEET_H_

// A fault-tolerant multi-device Smart SSD fleet with scatter-gather
// query execution — Section 4.3's end-of-spectrum vision ("the host
// machine could simply be the coordinator that stages computation
// across an array of Smart SSDs") grown into the robustness story:
//
//   * Fleet: N SsdDevice-backed databases (heterogeneous configs
//     allowed), hash/range-partitioned fact tables loaded with *global*
//     row indexes so any partitioning is cell-identical to a
//     single-device load (the table_gen purity rule), each device with
//     its own seeded fault-injector stream and its own circuit breaker;
//   * FleetCoordinator: fans each query out as one resumable QueryTask
//     per partition, interleaved on one sim::EventQueue (the
//     WorkloadScheduler machinery), merges partials deterministically
//     in partition-id order, and climbs a three-rung robustness ladder —
//       1. per-partition host fallback on device faults (byte-identical
//          results, the DeviceQueryTask contract),
//       2. breaker-open re-dispatch: a tripped device's partitions go
//          straight to its host path, skipping the doomed session,
//       3. strict failure: a partition no path can compute fails the
//          whole query with an explicit ABORTED error naming it — never
//          a silent truncation.
//
// Determinism: everything is virtual-time-driven off one event queue
// with FIFO tie-breaks, per-device fault seeds are a pure hash of
// (fleet_seed, device_id), and the merge order is fixed by partition
// id — so replays produce byte-identical results, which is what lets
// fleet shapes sit in the differential matrix next to the single-device
// ground truth.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/query_task.h"
#include "engine/workload.h"
#include "exec/query_spec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/fault_injector.h"

namespace smartssd::engine {

inline constexpr std::uint64_t kDefaultFleetSeed = 0xF1EE7;

// Per-device fault-injector seed: a pure stateless hash of
// (fleet_seed, device_id), mirroring table_gen's purity rule, so one
// fleet seed on a replay line reproduces every device's fault stream.
std::uint64_t DeviceFaultSeed(std::uint64_t fleet_seed, int device_id);

// N single-device databases acting as one partitioned store. Device i's
// fault injector is seeded with DeviceFaultSeed(fleet_seed, i) whenever
// a schedule is loaded through LoadFaultSchedule.
class Fleet {
 public:
  // Uniform fleet: `devices` copies of one configuration.
  Fleet(int devices, const DatabaseOptions& options,
        std::uint64_t fleet_seed = kDefaultFleetSeed);
  // Heterogeneous fleet: one configuration per device.
  explicit Fleet(const std::vector<DatabaseOptions>& options,
                 std::uint64_t fleet_seed = kDefaultFleetSeed);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(Fleet);

  int devices() const { return static_cast<int>(devices_.size()); }
  Database& device(int i) { return *devices_[static_cast<std::size_t>(i)]; }
  const Database& device(int i) const {
    return *devices_[static_cast<std::size_t>(i)];
  }
  std::uint64_t fleet_seed() const { return fleet_seed_; }
  std::uint64_t device_fault_seed(int device) const {
    return DeviceFaultSeed(fleet_seed_, device);
  }

  // Loads `row_count` rows split into contiguous global row ranges, one
  // per device. The generator sees global row indexes, so the
  // partitioned relation is cell-identical to a single-device load.
  Status LoadPartitionedTable(const std::string& name,
                              const storage::Schema& schema,
                              storage::PageLayout layout,
                              std::uint64_t row_count,
                              const storage::RowGenerator& gen);

  // Loads the full table on every device (broadcast, for join inners).
  Status LoadReplicatedTable(const std::string& name,
                             const storage::Schema& schema,
                             storage::PageLayout layout,
                             std::uint64_t row_count,
                             const storage::RowGenerator& gen);

  // True if `name` was loaded through LoadPartitionedTable — the only
  // tables a scatter-gather query may scan (merging replicated scans
  // would multiply-count rows).
  bool IsPartitioned(const std::string& name) const;

  // Builds per-page zone maps for `table` on every device.
  Status BuildZoneMaps(const std::string& table);

  void ResetForColdRun();

  // Loads `schedule` into device `device`'s injector with schedule.seed
  // overridden by the derived per-device seed.
  void LoadFaultSchedule(int device, sim::FaultSchedule schedule);
  void ClearFaults();

  // Wires one tracer through every device (processes "fleet<i>-dev" /
  // "fleet<i>-host") so all device tracks land in one trace. Attach
  // after loading tables; nullptr detaches.
  void AttachTracer(obs::Tracer* tracer);
  obs::Tracer* tracer() const { return tracer_; }

  // Fleet-level instruments (re-dispatch and fallback counters,
  // per-device breaker-state gauges, latency histograms) live here,
  // separate from the per-device registries.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Refreshes the per-device "fleet.dev<i>.breaker_state" gauges
  // (0 = closed, 1 = open, 2 = half-open, matching
  // DeviceCircuitBreaker::State order).
  void UpdateBreakerGauges();
  // Sum of breaker trips (closed -> open transitions) across devices.
  std::uint64_t TotalBreakerTrips() const;

 private:
  void Init(std::uint64_t fleet_seed);

  std::vector<std::unique_ptr<Database>> devices_;
  std::uint64_t fleet_seed_ = kDefaultFleetSeed;
  std::vector<std::string> partitioned_;
  obs::MetricsRegistry metrics_;
  obs::Tracer* tracer_ = nullptr;
};

// What one partition's subquery went through, in partition-id order.
struct FleetSubqueryRecord {
  int device = -1;
  SimTime start = 0;
  SimTime end = 0;
  bool redispatched = false;  // breaker-open: sent straight to host
  bool fell_back = false;     // device session died, host rerun won
  bool unavailable = false;   // no path produced this partition
};

// A merged fleet query result. `partition_stats` is indexed by device id.
struct FleetQueryResult {
  storage::Schema output_schema;
  std::vector<std::byte> rows;
  std::vector<std::int64_t> agg_values;
  SimTime start = 0;
  SimTime end = 0;  // last partial done + coordinator merge
  std::vector<QueryStats> partition_stats;

  SimDuration elapsed() const { return end - start; }
  double elapsed_seconds() const { return ToSeconds(elapsed()); }
  std::uint64_t row_count() const {
    const std::uint32_t width = output_schema.tuple_size();
    return width == 0 ? 0 : rows.size() / width;
  }
};

// One query template a fleet client submits. The spec is borrowed and
// must outlive the coordinator (specs are move-only; callers keep them
// at stable addresses, as the differential harness and benches do).
struct FleetQueryConfig {
  std::string client = "client";
  const exec::QuerySpec* spec = nullptr;
  // Fixed execution target for every subquery; nullopt lets each
  // device's placement policy decide.
  std::optional<ExecutionTarget> target = ExecutionTarget::kSmartSsd;
  PlanHints hints;
};

// The completion record of one fleet query, on the virtual clock.
struct CompletedFleetQuery {
  std::uint64_t id = 0;
  std::string client;
  std::string query_name;
  SimTime arrival = 0;
  SimTime admitted = 0;
  SimTime end = 0;
  Result<FleetQueryResult> result = InternalError("query not completed");
  std::vector<FleetSubqueryRecord> subqueries;  // partition-id order

  SimDuration latency() const { return end - arrival; }
  SimDuration queue_wait() const { return admitted - arrival; }
};

// Drives concurrent fleet queries, each scattered across every device
// as one resumable QueryTask per partition on one shared event queue,
// up the robustness ladder described in the header comment. Up to 8
// fleet queries run at once; later arrivals wait in a FIFO queue. A
// device-path subquery parks at the host while its device's session
// thread pool is empty. One-shot, like WorkloadScheduler: add clients,
// Run() once.
class FleetCoordinator {
 public:
  explicit FleetCoordinator(Fleet* fleet);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(FleetCoordinator);

  // One fleet query arriving at virtual time `at`. Returns its id.
  std::uint64_t Submit(FleetQueryConfig config, SimTime at);

  // Closed-loop client: the next query arrives `think_time` after the
  // previous completes.
  void AddClosedLoopClient(FleetQueryConfig config, int count,
                           SimDuration think_time = 0,
                           SimTime first_arrival = 0);

  // Runs to drain; completion records in completion order. Call once.
  Result<std::vector<CompletedFleetQuery>> Run();

  // Robustness counters for this run (also mirrored as fleet.* metrics
  // on the fleet's registry).
  std::uint64_t redispatches() const { return redispatches_; }
  std::uint64_t breaker_probes() const { return breaker_probes_; }
  std::uint64_t subquery_fallbacks() const { return subquery_fallbacks_; }
  std::uint64_t unavailable_partitions() const {
    return unavailable_partitions_;
  }

 private:
  struct Subquery {
    // Null once the partition resolved or the query was cancelled; the
    // task's pending events and parked entry then go stale.
    std::unique_ptr<QueryTask> task;
    std::optional<QueryResult> result;
    FleetSubqueryRecord record;
  };

  struct FleetQuery {
    std::uint64_t id = 0;
    std::size_t source = 0;
    SimTime arrival = 0;
    SimTime admitted = 0;
    std::vector<Subquery> subs;  // indexed by device id
    int outstanding = 0;
    SimTime last_done = 0;
  };

  struct Source {
    FleetQueryConfig config;
    obs::TrackId track = 0;
    bool closed_loop = false;
    int remaining = 0;
    SimDuration think_time = 0;
  };

  struct PendingArrival {
    std::size_t source = 0;
    SimTime arrival = 0;
    std::uint64_t id = 0;
  };

  struct Parked {
    std::shared_ptr<FleetQuery> query;
    std::size_t sub = 0;
  };

  std::size_t AddSource(FleetQueryConfig config);
  void ScheduleArrival(std::size_t source, SimTime at, std::uint64_t id);
  void OnArrival(std::size_t source, SimTime arrival, std::uint64_t id);
  void StartQuery(std::size_t source, SimTime arrival, SimTime admitted,
                  std::uint64_t id);
  void ScheduleStep(std::shared_ptr<FleetQuery> q, std::size_t sub,
                    SimTime at);
  void OnStep(const std::shared_ptr<FleetQuery>& q, std::size_t sub);
  void OnSubqueryComplete(const std::shared_ptr<FleetQuery>& q,
                          std::size_t sub, SimTime at);
  void FinishQuery(const std::shared_ptr<FleetQuery>& q);
  void CompleteRecord(const std::shared_ptr<FleetQuery>& q, SimTime end,
                      Result<FleetQueryResult> result);
  void TryUnpark();

  Fleet* fleet_;
  sim::Clock clock_;
  sim::EventQueue events_;
  obs::Tracer* tracer_ = nullptr;
  std::vector<obs::TrackId> device_tracks_;

  std::deque<Source> sources_;
  std::deque<PendingArrival> admission_queue_;
  std::deque<Parked> parked_;
  std::vector<CompletedFleetQuery> completed_;
  std::uint64_t next_id_ = 1;
  std::uint64_t expected_ = 0;
  int in_flight_ = 0;
  bool ran_ = false;

  std::uint64_t redispatches_ = 0;
  std::uint64_t breaker_probes_ = 0;
  std::uint64_t subquery_fallbacks_ = 0;
  std::uint64_t unavailable_partitions_ = 0;
};

// Blocking convenience: one query scattered across the fleet and merged
// (a throwaway FleetCoordinator driven to drain). `spec` is borrowed
// for the call.
Result<FleetQueryResult> ExecuteOnFleet(Fleet& fleet,
                                        const exec::QuerySpec& spec,
                                        ExecutionTarget target,
                                        SimTime start = 0);

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_FLEET_H_
