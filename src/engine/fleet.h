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
//   * ExecuteOnFleet: runs one query as one QueryTask per partition,
//     merges the partials in partition-id order, and climbs a
//     three-rung robustness ladder —
//       1. per-partition host fallback on device faults (byte-identical
//          results, the DeviceQueryTask contract),
//       2. breaker-open re-dispatch: a tripped device's partition goes
//          straight to its host path, skipping the doomed session,
//       3. strict failure: a partition no path can compute (or whose
//          device has no session grant free) fails the whole query with
//          an explicit ABORTED error naming it — never a silent
//          truncation.
//
// One query at a time. Devices share no simulated resource: each
// Database owns its SSD, buffer pool, host CPU and breaker, and the
// merge is charged on device 0's host only after every partition is
// done. So each partition's task runs alone to completion
// (RunToCompletion, the loop QueryExecutor uses too), one after
// another in device-id order and each from the query's start time, and
// every device's timeline is the one an interleaved run would give.
// Running several queries at once is WorkloadScheduler's job.
//
// Determinism: partitions run in a fixed order on virtual time,
// per-device fault seeds are a pure hash of (fleet_seed, device_id), and
// the merge order is fixed by partition id — so replays produce
// byte-identical results, which is what lets fleet shapes sit in the
// differential matrix next to the single-device ground truth.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "exec/query_spec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

// Runs `spec` as one subquery per partition, starting at `start`, and
// merges the partials; the fleet's one entry point. Every partition runs
// on `target` unless its device's breaker sends it to the host path.
// Records the fleet.* instruments on the fleet's registry and, with a
// tracer attached, one "subquery" span per device on the "fleet" lanes.
// `spec` is borrowed for the call.
Result<FleetQueryResult> ExecuteOnFleet(Fleet& fleet,
                                        const exec::QuerySpec& spec,
                                        ExecutionTarget target,
                                        SimTime start = 0);

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_FLEET_H_
