// TPC-H demo: the paper's three query classes end to end — plans
// (the textual equivalents of Figures 4 and 6), planner decisions, and
// host-vs-pushdown timings on one Smart SSD database.
//
//   ./build/examples/tpch_demo [scale_factor]   (default 0.02)

#include <cstdio>
#include <cstdlib>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {

void RunBothWays(engine::Database& db, const exec::QuerySpec& spec,
                 const std::function<void(const engine::QueryResult&)>&
                     print_answer) {
  auto bound = exec::Bind(spec, db.catalog());
  if (!bound.ok()) {
    std::fprintf(stderr, "bind failed: %s\n",
                 bound.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("\n--- %s ---\n", spec.name.c_str());
  std::printf("plan: %s\n", exec::PlanToString(*bound).c_str());

  engine::PushdownPlanner planner(&db);
  auto decision = planner.Decide(*bound);
  if (decision.ok()) {
    std::printf("planner: run on %s (%s)\n",
                engine::ExecutionTargetName(decision->target),
                decision->reason.c_str());
  }

  engine::QueryExecutor executor(&db);
  double host_seconds = 0;
  for (const auto target : {engine::ExecutionTarget::kHost,
                            engine::ExecutionTarget::kSmartSsd}) {
    db.ResetForColdRun();
    auto result = executor.Execute(spec, target);
    if (!result.ok()) {
      std::fprintf(stderr, "execute failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    const double seconds = result->stats.elapsed_seconds();
    if (target == engine::ExecutionTarget::kHost) host_seconds = seconds;
    std::printf("%-9s: %8.4f s virtual, %6.1f MB over host link",
                engine::ExecutionTargetName(target), seconds,
                static_cast<double>(result->stats.bytes_over_host_link) /
                    1e6);
    if (target == engine::ExecutionTarget::kSmartSsd) {
      std::printf("  -> speedup %.2fx", host_seconds / seconds);
    }
    std::printf("\n");
    if (target == engine::ExecutionTarget::kHost) print_answer(*result);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double sf = argc > 1 ? std::atof(argv[1]) : 0.02;
  std::printf("Loading TPC-H at SF %.3f plus Synthetic64 tables "
              "(PAX layout on a Smart SSD)...\n",
              sf);

  engine::Database db(engine::DatabaseOptions::PaperSmartSsd());
  auto check = [](const auto& result, const char* what) {
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", what,
                   result.status().ToString().c_str());
      std::exit(1);
    }
  };
  check(tpch::LoadLineitem(db, "lineitem", sf, storage::PageLayout::kPax),
        "load lineitem");
  check(tpch::LoadPart(db, "part", sf, storage::PageLayout::kPax),
        "load part");
  const std::uint64_t s_rows = static_cast<std::uint64_t>(2e6 * sf);
  check(tpch::LoadSyntheticS(db, "S", 64, s_rows, s_rows / 400 + 1,
                             storage::PageLayout::kPax),
        "load S");
  check(tpch::LoadSyntheticR(db, "R", 64, s_rows / 400 + 1,
                             storage::PageLayout::kPax),
        "load R");

  RunBothWays(db, tpch::Q6Spec("lineitem"),
              [](const engine::QueryResult& result) {
                std::printf("  Q6 revenue = %.2f\n",
                            tpch::Q6Revenue(result.agg_values));
              });

  RunBothWays(db, tpch::Q14Spec("lineitem", "part"),
              [](const engine::QueryResult& result) {
                std::printf("  Q14 promo_revenue = %.4f%%\n",
                            tpch::Q14PromoRevenue(result.agg_values));
              });

  RunBothWays(db, tpch::JoinQuerySpec("S", "R", 0.01),
              [](const engine::QueryResult& result) {
                std::printf("  join returned %llu rows\n",
                            static_cast<unsigned long long>(
                                result.row_count()));
              });
  return 0;
}
