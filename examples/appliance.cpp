// The Section 4.3 appliance, end to end: a host coordinator staging
// query processing across an array of Smart SSDs, with the planner's
// coherence rules exercised by a live update.
//
//   ./build/examples/appliance [workers] [scale_factor]

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "engine/executor.h"
#include "engine/fleet.h"
#include "engine/update.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int workers = argc > 1 ? std::atoi(argv[1]) : 4;
  const double sf = argc > 2 ? std::atof(argv[2]) : 0.02;

  std::printf("Appliance: host coordinator + %d Smart SSD workers, "
              "LINEITEM SF %.3f partitioned across them.\n\n",
              workers, sf);
  engine::Fleet fleet(workers, engine::DatabaseOptions::PaperSmartSsd());
  Check(tpch::LoadLineitemFleet(fleet, "lineitem", sf,
                                storage::PageLayout::kPax),
        "partitioned load");
  fleet.ResetForColdRun();

  // 1. Q6 across the array.
  auto q6 = engine::ExecuteOnFleet(fleet, tpch::Q6Spec("lineitem"),
                                   engine::ExecutionTarget::kSmartSsd);
  Check(q6.status(), "Q6");
  std::printf("Q6 across %d workers: revenue %.2f in %.4f s (virtual); "
              "slowest worker %.4f s\n",
              workers, tpch::Q6Revenue(q6->agg_values),
              q6->elapsed_seconds(),
              ToSeconds(q6->partition_stats[0].elapsed()));

  // 2. Q1 (grouped) across the array — merged key-wise by the host.
  fleet.ResetForColdRun();
  auto q1 = engine::ExecuteOnFleet(fleet, tpch::Q1Spec("lineitem"),
                                   engine::ExecutionTarget::kSmartSsd);
  Check(q1.status(), "Q1");
  std::printf("Q1 across %d workers: %llu groups in %.4f s\n", workers,
              static_cast<unsigned long long>(q1->row_count()),
              q1->elapsed_seconds());
  const std::uint32_t width = q1->output_schema.tuple_size();
  for (std::uint64_t r = 0; r < q1->row_count(); ++r) {
    const std::byte* row = q1->rows.data() + r * width;
    std::int64_t count;
    std::memcpy(&count, row + width - 8, 8);
    std::printf("  group '%c%c': %lld rows\n",
                static_cast<char>(row[0]), static_cast<char>(row[1]),
                static_cast<long long>(count));
  }

  // 3. Coherence in action: update worker 0's partition, watch its
  //    pushdown get refused until the dirty pages are flushed.
  engine::Database& w0 = fleet.device(0);
  engine::TableUpdater updater(&w0);
  const auto pred =
      expr::Le(expr::Col(tpch::kLOrderKey), expr::Lit(10));
  auto update = updater.Update(
      "lineitem", pred.get(),
      [](const expr::RowView&, storage::TupleWriter& writer) {
        writer.SetInt32(tpch::kLDiscount, 0);
      });
  Check(update.status(), "update");
  std::printf("\nUpdated %llu rows on worker 0 (pages now dirty in its "
              "buffer pool).\n",
              static_cast<unsigned long long>(update->rows_matched));

  engine::QueryExecutor w0_exec(&w0);
  auto refused = w0_exec.Execute(tpch::Q6Spec("lineitem"),
                                 engine::ExecutionTarget::kSmartSsd);
  std::printf("Pushdown on worker 0 while dirty: %s\n",
              refused.ok() ? "ACCEPTED (BUG)"
                           : refused.status().ToString().c_str());
  Check(w0.buffer_pool().FlushAll(0).status(), "flush");
  auto after = w0_exec.Execute(tpch::Q6Spec("lineitem"),
                               engine::ExecutionTarget::kSmartSsd);
  Check(after.status(), "post-flush Q6");
  std::printf("After FlushAll: pushdown accepted again (worker-0 revenue "
              "now %.2f).\n",
              tpch::Q6Revenue(after->agg_values));
  return 0;
}
