// trace_q6: run TPC-H Q6 once on the regular SSD (host scan) and once
// on the Smart SSD (PAX pushdown), with the virtual-time tracer
// attached, and export a Chrome trace_event JSON of both runs. Load the
// file in Perfetto (https://ui.perfetto.dev) or chrome://tracing: each
// database appears as its own process group with lanes for the flash
// channels, device DRAM bus, embedded cores, host link, session
// protocol, and host executor.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/trace_q6 [out.trace.json]
//
// Also dumps the always-on metrics registries (counters, gauges,
// histogram quantiles) for both databases to stdout.

#include <cstdio>

#include "engine/database.h"
#include "engine/executor.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {

constexpr double kScaleFactor = 0.01;  // 60k LINEITEM rows

bool RunQ6(engine::Database& db, const char* table,
           engine::ExecutionTarget target, const char* label) {
  db.ResetForColdRun();
  engine::QueryExecutor executor(&db);
  // The query runs alone, so the database-wide busy-time change around
  // it is its own per-stage breakdown.
  const engine::StageBreakdown before = db.StageSnapshot();
  auto result = executor.Execute(tpch::Q6Spec(table), target);
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", label,
                 result.status().ToString().c_str());
    return false;
  }
  const engine::StageBreakdown stage = db.StageSnapshot() - before;
  std::printf(
      "%-16s : revenue %.2f, elapsed %.4f s (virtual)\n"
      "%-16s   stage busy: chip %.4f s, channel %.4f s, dram-bus %.4f s,"
      " host-link %.4f s, embedded %.4f s, host-cpu %.4f s\n",
      label, tpch::Q6Revenue(result->agg_values),
      result->stats.elapsed_seconds(), "",
      ToSeconds(stage.flash_chip), ToSeconds(stage.flash_channel),
      ToSeconds(stage.dram_bus), ToSeconds(stage.host_link),
      ToSeconds(stage.embedded_cpu), ToSeconds(stage.host_cpu));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "q6.trace.json";

  // One tracer shared by both databases; distinct process names keep
  // their lanes apart in the exported trace.
  obs::Tracer tracer;

  engine::Database ssd_db(engine::DatabaseOptions::PaperSsd());
  if (!tpch::LoadLineitem(ssd_db, "lineitem", kScaleFactor,
                          storage::PageLayout::kNsm)
           .ok()) {
    std::fprintf(stderr, "load lineitem (SSD) failed\n");
    return 1;
  }

  engine::Database smart_db(engine::DatabaseOptions::PaperSmartSsd());
  if (!tpch::LoadLineitem(smart_db, "lineitem_pax", kScaleFactor,
                          storage::PageLayout::kPax)
           .ok()) {
    std::fprintf(stderr, "load lineitem PAX (Smart SSD) failed\n");
    return 1;
  }

  // Attach after loading so bulk-load I/O stays out of the trace.
  ssd_db.AttachTracer(&tracer, "SAS SSD device", "SAS SSD host");
  smart_db.AttachTracer(&tracer, "Smart SSD device", "Smart SSD host");

  if (!RunQ6(ssd_db, "lineitem", engine::ExecutionTarget::kHost,
             "SAS SSD") ||
      !RunQ6(smart_db, "lineitem_pax", engine::ExecutionTarget::kSmartSsd,
             "Smart SSD (PAX)")) {
    return 1;
  }

  const Status written = obs::WriteChromeTrace(tracer, out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %zu trace events (%zu tracks) to %s\n",
              tracer.events().size(), tracer.tracks().size(), out_path);

  std::printf("\n--- SAS SSD metrics ---\n");
  ssd_db.metrics().PrintText(stdout);
  std::printf("\n--- Smart SSD metrics ---\n");
  smart_db.metrics().PrintText(stdout);
  return 0;
}
