// Quickstart: load a table onto a simulated Smart SSD, run the same
// query on the host path and through in-SSD pushdown, and compare
// results, elapsed (virtual) time, and energy.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "energy/energy_model.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"

using namespace smartssd;

int main() {
  // A database backed by the paper's Smart SSD configuration.
  engine::Database db(engine::DatabaseOptions::PaperSmartSsd());

  // Load a 64-column synthetic table (200k rows, ~50 MB) in PAX layout.
  auto table = tpch::LoadSyntheticS(db, "Synthetic64_S", /*num_columns=*/64,
                                    /*rows=*/200'000, /*r_rows=*/1000,
                                    storage::PageLayout::kPax);
  if (!table.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }
  std::printf("Loaded %s: %llu rows, %llu pages (%s layout)\n",
              table->name.c_str(),
              static_cast<unsigned long long>(table->tuple_count),
              static_cast<unsigned long long>(table->page_count),
              storage::PageLayoutName(table->layout));

  // A selective scan + aggregate: SUM(Col_1) WHERE Col_3 < 1% threshold.
  exec::QuerySpec spec = tpch::ScanQuerySpec("Synthetic64_S", 64,
                                             /*selectivity=*/0.01,
                                             /*aggregate=*/true);

  // Ask the pushdown planner what it would do.
  engine::QueryExecutor executor(&db);
  auto bound = exec::Bind(spec, db.catalog());
  if (!bound.ok()) {
    std::fprintf(stderr, "bind failed: %s\n",
                 bound.status().ToString().c_str());
    return 1;
  }
  std::printf("Plan: %s\n", exec::PlanToString(*bound).c_str());
  engine::PushdownPlanner planner(&db);
  auto decision = planner.Decide(*bound);
  if (decision.ok()) {
    std::printf("Planner: %s (%s); est host %.3fs vs smart %.3fs\n",
                engine::ExecutionTargetName(decision->target),
                decision->reason.c_str(), decision->est_host_seconds,
                decision->est_smart_seconds);
  }

  // Run both ways, cold, and compare.
  for (const auto target : {engine::ExecutionTarget::kHost,
                            engine::ExecutionTarget::kSmartSsd}) {
    db.ResetForColdRun();
    auto result = executor.Execute(spec, target);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const auto energy = energy::ComputeEnergy(
        result->stats, db.host().config(), db.device().power_profile());
    std::printf(
        "%-9s : SUM = %lld, elapsed %.4f s (virtual), "
        "host-link %.1f MB, energy %.3f kJ (I/O %.4f kJ)\n",
        engine::ExecutionTargetName(target),
        static_cast<long long>(result->agg_values[0]),
        result->stats.elapsed_seconds(),
        static_cast<double>(result->stats.bytes_over_host_link) / 1e6,
        energy.system_kilojoules, energy.io_kilojoules);
  }
  return 0;
}
