#ifndef SMARTSSD_ENGINE_METRICS_H_
#define SMARTSSD_ENGINE_METRICS_H_

#include <cstdint>
#include <string>

#include "common/units.h"
#include "exec/cost_model.h"
#include "exec/hybrid_join.h"
#include "smart/runtime.h"
#include "storage/types.h"

namespace smartssd::engine {

enum class ExecutionTarget { kHost, kSmartSsd };

inline const char* ExecutionTargetName(ExecutionTarget target) {
  return target == ExecutionTarget::kHost ? "host" : "smart-ssd";
}

// How the engine decides where a query runs when no target is pinned.
// kCostModel is the planner's estimate-based host/device choice (the
// default); kAdaptive overflows whole queries to the host while the
// device's session-grant pool is empty and otherwise splits eligible
// scans across both sides. See engine/placement.h.
enum class PlacementPolicyKind { kCostModel, kAdaptive };

// Per-stage virtual busy time attributable to one query: the delta of
// every pipeline resource's accumulated busy time over the query's
// lifetime (the same occupancy the tracer records as spans, summed).
// This is the paper's bottleneck evidence in numeric form — on a cold
// run, the stage whose busy time approaches elapsed() is the stage that
// paces the configuration.
struct StageBreakdown {
  SimDuration flash_chip = 0;     // NAND sense (tR) across all chips
  SimDuration flash_channel = 0;  // channel bus + ECC across all channels
  SimDuration dram_bus = 0;       // device DRAM/DMA bus
  SimDuration host_link = 0;      // SATA/SAS link
  SimDuration embedded_cpu = 0;   // ARM-class cores (FTL + pushdown work)
  SimDuration host_cpu = 0;       // Xeon cores

  StageBreakdown operator-(const StageBreakdown& other) const {
    StageBreakdown d;
    d.flash_chip = flash_chip - other.flash_chip;
    d.flash_channel = flash_channel - other.flash_channel;
    d.dram_bus = dram_bus - other.dram_bus;
    d.host_link = host_link - other.host_link;
    d.embedded_cpu = embedded_cpu - other.embedded_cpu;
    d.host_cpu = host_cpu - other.host_cpu;
    return d;
  }
};

// Everything measured about one query execution, on the virtual clock.
struct QueryStats {
  std::string query_name;
  std::string device_name;
  ExecutionTarget target = ExecutionTarget::kHost;
  storage::PageLayout layout = storage::PageLayout::kNsm;

  SimTime start = 0;
  SimTime end = 0;
  SimDuration elapsed() const { return end - start; }
  double elapsed_seconds() const { return ToSeconds(elapsed()); }

  // Bytes that crossed the host interface during the query: whole pages
  // on the host path, result tuples (plus command traffic) on the smart
  // path. This drives the energy model's data-rate term.
  std::uint64_t bytes_over_host_link = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t pages_skipped = 0;  // zone-map pruning
  std::uint64_t output_rows = 0;
  std::uint64_t output_bytes = 0;
  std::uint64_t host_cycles = 0;
  std::uint64_t embedded_cycles = 0;
  exec::OpCounts counts;
  smart::SessionStats session;  // populated on the smart path
  // Hybrid-join spill behavior on the smart path; all-zero when the
  // join stayed fully resident (or there was no join).
  exec::HybridJoinStats join_spill;

  // Degraded execution: set when a pushdown session failed with a
  // retryable device error and the executor transparently re-ran the
  // query on the host path. `target` then reports kHost (where the work
  // actually ran), `start` stays at the original pushdown attempt so
  // elapsed() includes the wasted device time, and `fallback_reason`
  // keeps the device error that forced the retreat.
  bool fell_back = false;
  std::uint32_t device_attempts = 0;
  std::string fallback_reason;

  // Split-scan execution: the scan ran as `fragments` page-range
  // fragments placed independently on host/device, with partials merged
  // in fragment order. `target` then reports kSmartSsd when any
  // fragment ran on the device.
  bool split_scan = false;
  std::uint32_t fragments = 0;

  // Busy-time deltas per pipeline stage (device stages stay zero on the
  // HDD configuration and on warm runs served from the buffer pool).
  StageBreakdown stage;

  double host_ingest_gbps() const {
    const double s = elapsed_seconds();
    if (s <= 0) return 0;
    return static_cast<double>(bytes_over_host_link) / 1e9 / s;
  }
};

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_METRICS_H_
