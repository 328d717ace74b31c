// Mixed ingest + scan workload over a GC-prone device: closed-loop scan
// clients co-run with an ingest client whose batches update and append
// through the host write path, forcing FTL garbage collection under
// query load. The paper rules writes out of the device (Section 4.3);
// this bench measures what the write path costs the *read* side — GC
// pauses queue behind scan reads on the same chips and move scan tail
// latency, while the data the scans see stays byte-identical to a quiet
// device.
//
// The ingest is deliberately query-invariant: updates touch a column
// the scan never reads, appended rows fail the scan predicate. Every
// scan in every configuration must therefore return exactly the
// quiet-device ground truth — checked, exit(1) on any mismatch — so the
// ingest can only change *when* things happen, never *what*. After the
// run, the whole table must hold exactly the relation the batches
// define.
//
// `--json=<path>` emits one row per configuration with scan p99 as the
// headline number plus FTL counters (gc_runs, relocations, write
// amplification, gc-pause p99).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/workload.h"
#include "expr/expression.h"
#include "tpch/synthetic.h"

using namespace smartssd;

namespace ex = smartssd::expr;

namespace {

constexpr std::uint64_t kBaseRows = 30'000;
constexpr std::uint64_t kReservePages = 48;
constexpr int kScansPerClient = 12;
constexpr int kIngestBatches = 8;
constexpr std::uint64_t kUpdateHi = 6'000;   // keys [0, kUpdateHi] updated
constexpr std::uint64_t kAppendRows = 500;   // per batch
constexpr std::uint64_t kFinalRows =
    kBaseRows + kIngestBatches * kAppendRows;

std::int32_t Col3(std::uint64_t row) {
  return static_cast<std::int32_t>((row * 7) % 1000);
}

// Deterministic 4-column INT32 table, pure in the row index so appended
// rows are indistinguishable from loaded ones: Col_1 = row (key),
// Col_2 = row % 97, Col_3 = (row * 7) % 1000, Col_4 = 5.
void FillRow(std::uint64_t row, storage::TupleWriter& writer) {
  writer.SetInt32(0, static_cast<std::int32_t>(row));
  writer.SetInt32(1, static_cast<std::int32_t>(row % 97));
  writer.SetInt32(2, Col3(row));
  writer.SetInt32(3, 5);
}

// Small device, tight over-provisioning, small buffer pool: scans pay
// flash reads and the ingest's flush-back pushes the free lists to the
// GC watermark within a few batches.
engine::DatabaseOptions GcProneOptions() {
  engine::DatabaseOptions options =
      engine::DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = 96;
  options.ssd.geometry.channels = 2;
  options.ssd.geometry.chips_per_channel = 2;
  options.ssd.geometry.blocks_per_chip = 8;
  options.ssd.geometry.pages_per_block = 16;
  options.ssd.geometry.page_size_bytes = 2048;
  options.ssd.dram.capacity_bytes = 64 * kMiB;
  options.ssd.ftl.over_provisioning = 0.25;
  options.ssd.ftl.gc_low_watermark_blocks = 2;
  return options;
}

void LoadBase(engine::Database& db) {
  bench::Unwrap(db.LoadTable("T", tpch::SyntheticSchema(4),
                             storage::PageLayout::kNsm, kBaseRows, FillRow,
                             kReservePages),
                "load T");
  bench::Check(db.BuildZoneMap("T"), "zone map");
  db.ResetForColdRun();
}

// The scan every client runs: SUM(Col_3) over the loaded key range.
// Appended rows (Col_1 >= kBaseRows) miss the predicate and updates
// mutate Col_4 only, so this sum is invariant under the whole ingest.
exec::QuerySpec ScanSpec() {
  exec::QuerySpec spec;
  spec.name = "invariant-scan";
  spec.table = "T";
  spec.predicate =
      ex::Lt(ex::Col(0), ex::Lit(static_cast<std::int64_t>(kBaseRows)));
  spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s"});
  return spec;
}

double PercentileSeconds(std::vector<SimDuration> sorted, double q) {
  const std::size_t n = sorted.size();
  std::size_t rank =
      static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  if (rank > n) rank = n;
  return ToSeconds(sorted[rank - 1]);
}

struct RunResult {
  std::vector<SimDuration> scan_latencies;  // sorted
  double ingest_p95_s = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_relocations = 0;
  double write_amplification = 1.0;
  double gc_pause_p99_ns = 0;
  std::int64_t col3_sum = 0;  // full-table SUM(Col_3) after the run
  std::int64_t col4_sum = 0;  // full-table SUM(Col_4) after the run
};

// One configuration: two closed-loop scan clients, plus (unless quiet)
// one ingest client running kIngestBatches update+append+flush batches.
RunResult RunConfig(bool with_ingest, std::int64_t truth) {
  engine::Database db(GcProneOptions());
  LoadBase(db);

  engine::WorkloadScheduler sched(&db);
  for (const char* client : {"scan-a", "scan-b"}) {
    engine::WorkloadQueryConfig scan;
    scan.client = client;
    scan.spec = ScanSpec();
    scan.target = engine::ExecutionTarget::kHost;
    sched.AddClosedLoopClient(std::move(scan), kScansPerClient);
  }

  const ex::ExprPtr update_pred =
      ex::Le(ex::Col(0), ex::Lit(static_cast<std::int64_t>(kUpdateHi)));
  if (with_ingest) {
    engine::IngestClientConfig ingest;
    ingest.client = "writer";
    ingest.spec.table = "T";
    ingest.spec.with_update = true;
    ingest.spec.update_predicate = update_pred.get();
    // Col_4 is never read by the scans; the mutation still dirties and
    // rewrites every page of the key range.
    ingest.spec.mutate = [](const expr::RowView&,
                            storage::TupleWriter& writer) {
      writer.SetInt32(3, 7);
    };
    ingest.spec.append_rows = kAppendRows;
    ingest.spec.append_gen = FillRow;
    sched.AddIngestClient(std::move(ingest), kIngestBatches);
  }

  const std::vector<engine::CompletedQuery> records =
      bench::Unwrap(sched.Run(), "workload");

  RunResult result;
  for (const engine::CompletedQuery& r : records) {
    bench::Check(r.result.status(), "scan");
    if (r.result.value().agg_values[0] != truth) {
      std::fprintf(stderr,
                   "scan %llu returned %lld, quiet-device truth is %lld — "
                   "the write path corrupted a read\n",
                   static_cast<unsigned long long>(r.id),
                   static_cast<long long>(r.result.value().agg_values[0]),
                   static_cast<long long>(truth));
      std::exit(1);
    }
    result.scan_latencies.push_back(r.latency());
  }
  std::sort(result.scan_latencies.begin(), result.scan_latencies.end());

  std::vector<SimDuration> ingest_latencies;
  for (const engine::CompletedIngest& b : sched.completed_ingests()) {
    bench::Check(b.result.status(), "ingest batch");
    ingest_latencies.push_back(b.latency());
  }
  if (!ingest_latencies.empty()) {
    std::sort(ingest_latencies.begin(), ingest_latencies.end());
    result.ingest_p95_s = PercentileSeconds(ingest_latencies, 0.95);
  }

  const ftl::FtlStats& ftl_stats = db.ssd()->ftl().stats();
  result.gc_runs = ftl_stats.gc_runs;
  result.gc_relocations = ftl_stats.gc_relocations;
  result.write_amplification = ftl_stats.write_amplification();
  result.gc_pause_p99_ns =
      db.metrics().histogram("ftl.gc_pause_ns")->p99();

  // Final-state check inputs: full-table sums over both the scanned and
  // the mutated column.
  auto full_sum = [&db](int col) {
    exec::QuerySpec spec;
    spec.table = "T";
    spec.aggregates.push_back(
        {exec::AggSpec::Fn::kSum, ex::Col(col), "s"});
    engine::QueryExecutor executor(&db);
    return bench::Unwrap(executor.Execute(spec,
                                          engine::ExecutionTarget::kHost),
                         "final sum")
        .agg_values[0];
  };
  result.col3_sum = full_sum(2);
  result.col4_sum = full_sum(3);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Mixed ingest + scan workload: GC vs scan tail latency on a "
      "write-loaded device",
      "the write path Section 4.3 rules out of the device, measured "
      "from the host side");
  bench::JsonReporter reporter("ingest_workload", argc, argv);

  // Quiet-device ground truth for the invariant scan.
  std::int64_t truth = 0;
  {
    engine::Database quiet(GcProneOptions());
    LoadBase(quiet);
    engine::QueryExecutor executor(&quiet);
    truth = bench::Unwrap(
                executor.Execute(ScanSpec(), engine::ExecutionTarget::kHost),
                "truth scan")
                .agg_values[0];
  }

  struct Config {
    const char* name;
    bool with_ingest;
  };
  const Config kConfigs[] = {
      {"quiet", false},
      {"greedy", true},
  };

  std::printf("%-13s | %8s %8s %8s | %7s %7s %7s %9s\n", "config",
              "p50 s", "p95 s", "p99 s", "gc", "reloc", "WA",
              "pause p99");
  bench::PrintRule();

  double quiet_p99 = 0;
  RunResult ingest_result;
  for (const Config& config : kConfigs) {
    const RunResult r = RunConfig(config.with_ingest, truth);
    const double p50 = PercentileSeconds(r.scan_latencies, 0.50);
    const double p95 = PercentileSeconds(r.scan_latencies, 0.95);
    const double p99 = PercentileSeconds(r.scan_latencies, 0.99);
    std::printf("%-13s | %8.4f %8.4f %8.4f | %7llu %7llu %6.2fx %7.2fms\n",
                config.name, p50, p95, p99,
                static_cast<unsigned long long>(r.gc_runs),
                static_cast<unsigned long long>(r.gc_relocations),
                r.write_amplification, r.gc_pause_p99_ns / 1e6);
    if (!config.with_ingest) {
      quiet_p99 = p99;
    } else {
      ingest_result = r;
    }
    reporter.AddWithCounters(
        config.name, p99, NAN, quiet_p99 > 0 ? p99 / quiet_p99 : 1.0,
        {{"gc_runs", static_cast<double>(r.gc_runs)},
         {"gc_relocations", static_cast<double>(r.gc_relocations)},
         {"write_amplification", r.write_amplification},
         {"gc_pause_p99_ns", r.gc_pause_p99_ns},
         {"ingest_p95_s", r.ingest_p95_s}});
  }
  bench::PrintRule();

  // The relation the batches define: rows [0, kFinalRows) as FillRow
  // writes them, with Col_4 = 7 on the updated keys [0, kUpdateHi]. GC
  // placement is never host-visible, so the table must hold exactly it.
  std::int64_t want_col3 = 0;
  for (std::uint64_t row = 0; row < kFinalRows; ++row) want_col3 += Col3(row);
  const auto want_col4 =
      static_cast<std::int64_t>(7 * (kUpdateHi + 1) +
                                5 * (kFinalRows - (kUpdateHi + 1)));
  if (ingest_result.col3_sum != want_col3 ||
      ingest_result.col4_sum != want_col4) {
    std::fprintf(stderr,
                 "final relation differs from the batches' "
                 "(col3 %lld vs %lld, col4 %lld vs %lld)\n",
                 static_cast<long long>(ingest_result.col3_sum),
                 static_cast<long long>(want_col3),
                 static_cast<long long>(ingest_result.col4_sum),
                 static_cast<long long>(want_col4));
    return 1;
  }
  if (ingest_result.gc_runs == 0) {
    std::fprintf(stderr, "ingest never drove GC — bench is not "
                         "exercising the write path\n");
    return 1;
  }

  std::printf(
      "Shape check: every scan returned the quiet-device truth in every "
      "configuration (verified), the final relation is the one the "
      "batches define (verified), and the ingest load moves scan p99 off "
      "the quiet baseline.\n");
  reporter.Write();
  return 0;
}
