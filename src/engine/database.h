#ifndef SMARTSSD_ENGINE_DATABASE_H_
#define SMARTSSD_ENGINE_DATABASE_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/macros.h"
#include "common/result.h"
#include "engine/buffer_pool.h"
#include "exec/hybrid_join.h"
#include "exec/kernel_mode.h"
#include "engine/circuit_breaker.h"
#include "engine/host_machine.h"
#include "engine/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smart/runtime.h"
#include "ssd/hdd_device.h"
#include "ssd/ssd_device.h"
#include "storage/catalog.h"
#include "storage/table_loader.h"
#include "storage/zone_map.h"

namespace smartssd::engine {

enum class DeviceKind { kHdd, kSsd, kSmartSsd };

struct DatabaseOptions {
  DeviceKind device = DeviceKind::kSmartSsd;
  ssd::SsdConfig ssd = ssd::SsdConfig::PaperSmartSsd();
  ssd::HddConfig hdd;
  HostConfig host;
  std::uint64_t buffer_pool_pages = 4096;
  CircuitBreakerConfig breaker;
  // Page kernel for both the host path and the pushdown program. The
  // two kernels are byte-identical in results and OpCounts (so virtual
  // time never depends on this); kScalar exists as the semantic
  // reference for differential testing.
  exec::KernelMode kernel = exec::KernelMode::kVectorized;
  // Memory-constrained pushdown joins. budget_bytes caps the resident
  // build side of an in-device join; when the estimated hash table
  // exceeds it, the build switches to the hybrid hash join and the
  // overflow partitions spill to flash through the internal write path.
  // budget_bytes == 0 keeps the unconstrained build, but a join whose
  // table cannot fit free device DRAM derives a budget instead of
  // falling off the old routing cliff (see ResolveJoinBudget).
  exec::HybridJoinConfig join_spill;
  // Routing policy applied when a query is submitted without an
  // explicit execution target (ExecuteAuto, scheduler clients without a
  // pinned target). kCostModel is the planner's estimate-based
  // host/device choice; kAdaptive routes on the session-grant pool and
  // splits eligible scans across both sides (engine/placement.h).
  PlacementPolicyKind placement = PlacementPolicyKind::kCostModel;

  // The paper's three storage configurations (Section 4.1.2), identical
  // host, differing only in the device behind the HBA.
  static DatabaseOptions PaperHdd();
  static DatabaseOptions PaperSsd();
  static DatabaseOptions PaperSmartSsd();
};

// One host + one storage device + the DBMS state gluing them together.
// This is the stand-in for the paper's modified SQL Server instance: a
// catalog of heap tables, a buffer pool, and — when the device is a
// Smart SSD — a session runtime the executor's "special path" talks to.
class Database {
 public:
  explicit Database(const DatabaseOptions& options);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(Database);

  DeviceKind device_kind() const { return options_.device; }
  ssd::BlockDevice& device() { return *device_; }
  const ssd::BlockDevice& device() const { return *device_; }

  // Non-null only when the device is a Smart SSD.
  ssd::SsdDevice* ssd() { return ssd_; }
  const ssd::SsdDevice* ssd() const { return ssd_; }
  smart::SmartSsdRuntime* runtime() { return runtime_.get(); }
  const smart::SmartSsdRuntime* runtime() const { return runtime_.get(); }
  bool smart_capable() const { return runtime_ != nullptr; }

  // Shared across executors and planners: pushdown failures recorded by
  // any executor steer every later routing decision.
  DeviceCircuitBreaker& circuit_breaker() { return breaker_; }
  const DeviceCircuitBreaker& circuit_breaker() const { return breaker_; }

  storage::Catalog& catalog() { return *catalog_; }
  const storage::Catalog& catalog() const { return *catalog_; }
  BufferPool& buffer_pool() { return *pool_; }
  const BufferPool& buffer_pool() const { return *pool_; }
  HostMachine& host() { return *host_; }
  const HostMachine& host() const { return *host_; }
  const DatabaseOptions& options() const { return options_; }
  // Swaps the routing policy on a live database. The policy only feeds
  // plan-time decisions, so benches sweep it across measurement points
  // on one loaded database instead of re-loading per policy.
  void set_placement(PlacementPolicyKind placement) {
    options_.placement = placement;
  }

  // Bulk-loads a table (see TableLoader). `reserve_extra_pages` leaves
  // extent headroom for appends.
  Result<storage::TableInfo> LoadTable(std::string name,
                                       const storage::Schema& schema,
                                       storage::PageLayout layout,
                                       std::uint64_t row_count,
                                       const storage::RowGenerator& gen,
                                       std::uint64_t reserve_extra_pages = 0);

  // Builds per-page min/max statistics for a loaded table. Do this
  // right after LoadTable (it reads every page, so timing should be
  // reset afterwards — ResetForColdRun does that anyway). Scans on the
  // table will then skip pages whose zone excludes the predicate range,
  // on both the host and the pushdown path.
  Status BuildZoneMap(const std::string& table);
  // The table's zone map, or nullptr if none was built (or it is
  // currently stale after a write).
  const storage::ZoneMap* zone_map(const std::string& table) const;
  // The same map as a shared, immutable snapshot (nullptr likewise): a
  // device session ships it instead of copying the statistics. While a
  // snapshot is held, WidenZoneMap widens a copy, so the holder keeps
  // seeing the ranges it was given; MarkZoneMapStale drops only the
  // database's reference.
  std::shared_ptr<const storage::ZoneMap> zone_map_snapshot(
      const std::string& table) const;
  // Marks a table's zone map stale after an in-place update: zone_map()
  // returns nullptr (pushdown loses pruning, never correctness) until
  // RestoreZoneMaps rebuilds it. Tables with no map are a no-op.
  void MarkZoneMapStale(const std::string& table);
  // Widens a table's live zone map from a freshly written page image
  // (the append path's maintenance hook). No-op when the table has no
  // live map; widening only grows ranges, so pruning stays sound.
  Status WidenZoneMap(const std::string& table, std::uint64_t page_index,
                      std::span<const std::byte> page);
  // Rebuilds every stale zone map by reading the tables through the
  // buffer pool (dirty pages must have been flushed first); returns the
  // virtual time the rebuild scans finish.
  Result<SimTime> RestoreZoneMaps(SimTime ready);
  // Flushes all dirty buffer-pool pages to the device and then restores
  // any stale zone maps, so pushdown eligibility recovers. The write
  // path's durability point.
  Result<SimTime> FlushAll(SimTime ready);

  // Cold-run reset: empties the (clean) buffer pool and zeroes all
  // device/host timing, as the paper does before each measured query.
  void ResetForColdRun();

  // Rough sequential read bandwidth of the host path, for the planner.
  std::uint64_t EstimatedHostReadBytesPerSecond() const;
  // Internal bandwidth (smart path); 0 for non-smart devices.
  std::uint64_t EstimatedInternalReadBytesPerSecond() const;

  // --- Observability ---------------------------------------------------

  // Wires `tracer` through every layer: device resources and FTL/faults
  // under `device_process`, host cores / executor / session protocol /
  // breaker under `host_process`. Distinct process names let two
  // databases (e.g. the SSD and Smart SSD configurations) share one
  // tracer and appear as separate process groups in the exported trace.
  // Attach after loading tables so bulk-load I/O does not flood the
  // trace; nullptr detaches everything.
  void AttachTracer(obs::Tracer* tracer,
                    std::string_view device_process = "device",
                    std::string_view host_process = "host");
  obs::Tracer* tracer() const { return tracer_; }
  // The host-side "executor" lane query/phase spans land on.
  obs::TrackId executor_track() const { return executor_track_; }
  // Latest virtual time recorded on this database's lanes (both of its
  // processes), with a tracer attached: the end a span that dies on an
  // error path gets. Databases sharing the tracer, like a fleet's
  // devices, do not move it.
  SimTime trace_latest_time() const;

  // Always-on instrument registry for this database (flash, FTL, buffer
  // pool, executor instruments register here at construction).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Current accumulated busy time of every pipeline stage. The executor
  // diffs two snapshots to fill QueryStats::stage.
  StageBreakdown StageSnapshot() const;

 private:
  DatabaseOptions options_;
  // Declared before the layers that hold instrument pointers into it,
  // so it is destroyed after them.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<ssd::BlockDevice> device_;
  ssd::SsdDevice* ssd_ = nullptr;  // borrowed view of device_
  std::unique_ptr<smart::SmartSsdRuntime> runtime_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HostMachine> host_;
  DeviceCircuitBreaker breaker_;
  // Shared so device sessions can hold a snapshot; copied on write
  // while one does (WidenZoneMap).
  std::map<std::string, std::shared_ptr<storage::ZoneMap>> zone_maps_;
  // Tables whose zone map was invalidated by a write and awaits rebuild.
  std::set<std::string> stale_zone_maps_;
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId executor_track_ = 0;
  std::string trace_device_process_;
  std::string trace_host_process_;
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_DATABASE_H_
