// ingest_scan: a closed loop of scan clients re-running an invariant
// scan beside one ingest client on a small, GC-prone device. Each
// ingest batch updates a seeded key window in place, appends rows sized
// so that all batches together fill the table's reserved headroom, and
// flushes. GC, routing and flush use the library defaults.
//
// The ingest never changes what the scan computes: updates rewrite a
// column the scan does not read and appended keys fail its predicate,
// so every scan must return the quiet-device answer.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/executor.h"
#include "engine/workload.h"
#include "expr/expression.h"
#include "tpch/synthetic.h"

namespace smartssd::perfbench {
namespace {

namespace ex = smartssd::expr;

constexpr std::uint64_t kPoolPages = 96;
constexpr std::uint64_t kBaseRows = 30'000;
constexpr std::uint64_t kReservePages = 48;
constexpr std::int64_t kUpdateKeys = 6'000;  // keys per update window
constexpr std::int32_t kLoadedCol4 = 5;
constexpr std::int32_t kMutatedCol4 = 7;

struct Sizes {
  int scan_clients = 2;
  int scans_per_client = 300;
  int batches = 240;
};

engine::DatabaseOptions IngestOptions() {
  engine::DatabaseOptions options = engine::DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = kPoolPages;
  options.ssd.geometry.channels = 2;
  options.ssd.geometry.chips_per_channel = 2;
  options.ssd.geometry.blocks_per_chip = 8;
  options.ssd.geometry.pages_per_block = 16;
  options.ssd.geometry.page_size_bytes = 2048;
  options.ssd.ftl.over_provisioning = 0.25;
  return options;
}

// Table T's cells, pure in (seed, row), so appended rows look like
// loaded ones: Col_1 = row (key), Col_2 and Col_3 seeded, Col_4 = 5.
std::int32_t Col3(std::uint64_t seed, std::uint64_t row) {
  return static_cast<std::int32_t>(Mix(seed ^ Mix(row)) % 1000);
}

storage::RowGenerator FillRow(std::uint64_t seed) {
  return [seed](std::uint64_t row, storage::TupleWriter& writer) {
    writer.SetInt32(0, static_cast<std::int32_t>(row));
    writer.SetInt32(1, static_cast<std::int32_t>(Mix(row ^ seed) % 97));
    writer.SetInt32(2, Col3(seed, row));
    writer.SetInt32(3, kLoadedCol4);
  };
}

// SUM(Col_3) over the loaded keys: invariant under the whole ingest.
exec::QuerySpec ScanSpec() {
  exec::QuerySpec spec;
  spec.name = "invariant-scan";
  spec.table = "T";
  spec.predicate =
      ex::Lt(ex::Col(0), ex::Lit(static_cast<std::int64_t>(kBaseRows)));
  spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s"});
  return spec;
}

exec::QuerySpec FullTableSpec() {
  exec::QuerySpec spec;
  spec.name = "final-relation";
  spec.table = "T";
  spec.aggregates.push_back({exec::AggSpec::Fn::kCount, nullptr, "n"});
  spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s3"});
  spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(3), "s4"});
  return spec;
}

struct Repetition {
  std::vector<double> scan_latency;    // ascending, virtual seconds
  std::vector<double> ingest_latency;  // ascending, virtual seconds
  std::vector<double> scan_queue_wait;
  double write_amp = 0;
  double scans_end_s = 0;   // virtual time the last scan completed
  double ingest_end_s = 0;  // virtual time the last batch completed
  double setup_s = 0;
  double load_s = 0;
  double zone_map_s = 0;
  double run_s = 0;    // host seconds of the measured phase
  double sched_s = 0;  // of which inside WorkloadScheduler::Run
  std::uint64_t ops = 0;
  std::uint64_t pages_loaded = 0;
  std::vector<std::uint64_t> fingerprint;
};

Repetition RunOnce(std::uint64_t seed, const Sizes& sizes,
                   WorkloadResult& result, LayerTotals* totals,
                   std::map<std::string, Metric>* layer) {
  Repetition rep;
  const std::uint64_t window_lo =
      Mix(seed) % (kBaseRows - static_cast<std::uint64_t>(kUpdateKeys));
  const auto update_lo = static_cast<std::int64_t>(window_lo);
  const std::int64_t update_hi = update_lo + kUpdateKeys - 1;

  // --- Set-up. ---
  const double t0 = HostNow();
  std::unique_ptr<engine::Database> db;
  {
    SpanRecorder::Scope span(Spans(), "engine.Database");
    db = std::make_unique<engine::Database>(IngestOptions());
  }
  const double t1 = HostNow();
  Result<storage::TableInfo> info = [&] {
    SpanRecorder::Scope span(Spans(), "engine.Database::LoadTable");
    return db->LoadTable("T", tpch::SyntheticSchema(4),
                         storage::PageLayout::kNsm, kBaseRows, FillRow(seed),
                         kReservePages);
  }();
  const double t2 = HostNow();
  if (!info.ok()) {
    NoteFailure(result, "load: " + info.status().ToString());
    return rep;
  }
  {
    SpanRecorder::Scope span(Spans(), "engine.BuildZoneMap");
    const Status status = db->BuildZoneMap("T");
    if (!status.ok()) NoteFailure(result, "zone map: " + status.ToString());
  }
  const double t3 = HostNow();
  rep.setup_s = t3 - t0;
  rep.load_s = t2 - t1;
  rep.zone_map_s = t3 - t2;
  rep.pages_loaded = info.value().page_count;
  const std::uint64_t headroom_rows =
      info.value().reserved_pages * info.value().tuples_per_page -
      info.value().tuple_count;
  const std::uint64_t append_rows =
      headroom_rows / static_cast<std::uint64_t>(sizes.batches);

  // --- Quiet-device answer, before the ingest starts. ---
  std::int64_t truth = 0;
  {
    db->ResetForColdRun();
    engine::QueryExecutor executor(db.get());
    const exec::QuerySpec spec = ScanSpec();
    SpanRecorder::Scope span(Spans(), "engine.QueryExecutor::Execute");
    Result<engine::QueryResult> r =
        executor.Execute(spec, engine::ExecutionTarget::kHost);
    if (!r.ok()) {
      NoteFailure(result, "truth scan: " + r.status().ToString());
      return rep;
    }
    truth = r.value().agg_values[0];
  }
  if (layer != nullptr) {
    // Placement of the one scan template, solo on the quiet device.
    const SoloProbe probe = ProbeSolo(*db, ScanSpec(), result);
    (*layer)["engine.placement_regret"] = {probe.regret ? 1.0 : 0.0, "ratio",
                                           "virtual", "1 template"};
  }
  db->ResetForColdRun();
  db->metrics().ResetAll();
  const std::uint64_t sessions_before = db->runtime()->sessions_run();

  // --- Measured phase. ---
  std::vector<ex::ExprPtr> window;
  window.push_back(ex::Ge(ex::Col(0), ex::Lit(update_lo)));
  window.push_back(ex::Le(ex::Col(0), ex::Lit(update_hi)));
  const ex::ExprPtr update_pred = ex::And(std::move(window));
  const double t4 = HostNow();
  engine::WorkloadScheduler sched(db.get());
  for (int c = 0; c < sizes.scan_clients; ++c) {
    engine::WorkloadQueryConfig scan;
    scan.client = "scan-" + std::to_string(c);
    scan.spec = ScanSpec();
    sched.AddClosedLoopClient(std::move(scan), sizes.scans_per_client);
  }
  engine::IngestClientConfig ingest;
  ingest.client = "writer";
  ingest.spec.table = "T";
  ingest.spec.with_update = true;
  ingest.spec.update_predicate = update_pred.get();
  ingest.spec.mutate = [](const expr::RowView&, storage::TupleWriter& w) {
    w.SetInt32(3, kMutatedCol4);
  };
  ingest.spec.append_rows = append_rows;
  ingest.spec.append_gen = FillRow(seed);
  sched.AddIngestClient(std::move(ingest), sizes.batches);
  const double t5 = HostNow();
  Result<std::vector<engine::CompletedQuery>> records = [&] {
    SpanRecorder::Scope span(Spans(), "engine.WorkloadScheduler::Run");
    return sched.Run();
  }();
  const double t6 = HostNow();
  rep.run_s = t6 - t4;
  rep.sched_s = t6 - t5;

  const auto scans = static_cast<std::uint64_t>(sizes.scan_clients *
                                               sizes.scans_per_client);
  rep.ops = scans + static_cast<std::uint64_t>(sizes.batches);
  result.attempted += rep.ops;
  if (!records.ok()) {
    for (std::uint64_t i = 0; i < rep.ops; ++i) {
      NoteFailure(result, "scheduler: " + records.status().ToString());
    }
    return rep;
  }

  // --- Checks: every scan against the quiet-device answer. ---
  SimTime last_end = 0;
  for (const engine::CompletedQuery& r : records.value()) {
    last_end = std::max(last_end, r.end);
    rep.scans_end_s = std::max(rep.scans_end_s, ToSeconds(r.end));
    rep.fingerprint.push_back(r.end);
    if (!r.result.ok()) {
      NoteFailure(result, "scan: " + r.result.status().ToString());
      continue;
    }
    if (r.result.value().agg_values[0] != truth) {
      NoteFailure(result, "scan " + std::to_string(r.id) + " returned " +
                              std::to_string(r.result.value().agg_values[0]) +
                              ", quiet-device answer is " +
                              std::to_string(truth));
      continue;
    }
    rep.scan_latency.push_back(ToSeconds(r.latency()));
    rep.scan_queue_wait.push_back(ToSeconds(r.queue_wait()));
    if (totals != nullptr) totals->AddQuery(r.result.value().stats);
  }
  if (records.value().size() != scans) {
    NoteFailure(result, "scheduler lost scans");
  }
  std::uint64_t appended = 0;
  for (const engine::CompletedIngest& b : sched.completed_ingests()) {
    last_end = std::max(last_end, b.end);
    rep.ingest_end_s = std::max(rep.ingest_end_s, ToSeconds(b.end));
    rep.fingerprint.push_back(b.end);
    if (!b.result.ok()) {
      NoteFailure(result, "ingest: " + b.result.status().ToString());
      continue;
    }
    appended += b.result.value().rows_appended;
    rep.ingest_latency.push_back(ToSeconds(b.latency()));
  }
  if (sched.completed_ingests().size() !=
      static_cast<std::size_t>(sizes.batches)) {
    NoteFailure(result, "scheduler lost ingest batches");
  }
  std::sort(rep.scan_latency.begin(), rep.scan_latency.end());
  std::sort(rep.ingest_latency.begin(), rep.ingest_latency.end());
  std::sort(rep.scan_queue_wait.begin(), rep.scan_queue_wait.end());
  const ftl::FtlStats& ftl = db->ssd()->ftl().stats();
  rep.write_amp = ftl.write_amplification();
  rep.fingerprint.push_back(ftl.host_writes);
  rep.fingerprint.push_back(ftl.gc_relocations);
  if (totals != nullptr) {
    totals->sessions += db->runtime()->sessions_run() - sessions_before;
    totals->AddDatabase(*db, last_end);
    if (layer != nullptr) totals->Emit(*db, *layer);
  }

  // --- Checks: the final relation holds exactly the rows written. ---
  const std::uint64_t rows = kBaseRows + appended;
  std::int64_t want_s3 = 0;
  for (std::uint64_t row = 0; row < rows; ++row) want_s3 += Col3(seed, row);
  const auto updated = static_cast<std::int64_t>(
      std::min(rows, static_cast<std::uint64_t>(update_hi) + 1) -
      std::min(rows, window_lo));
  const std::int64_t want_s4 =
      updated * kMutatedCol4 +
      (static_cast<std::int64_t>(rows) - updated) * kLoadedCol4;
  db->ResetForColdRun();
  engine::QueryExecutor executor(db.get());
  const exec::QuerySpec full = FullTableSpec();
  Result<engine::QueryResult> final_r = [&] {
    SpanRecorder::Scope span(Spans(), "engine.QueryExecutor::Execute");
    return executor.Execute(full, engine::ExecutionTarget::kHost);
  }();
  if (appended != append_rows * static_cast<std::uint64_t>(sizes.batches)) {
    NoteFailure(result, "ingest appended " + std::to_string(appended) +
                            " rows, expected " +
                            std::to_string(append_rows * sizes.batches));
  }
  if (!final_r.ok()) {
    NoteFailure(result, "final relation: " + final_r.status().ToString());
  } else {
    const std::vector<std::int64_t>& got = final_r.value().agg_values;
    if (got.size() != 3 || got[0] != static_cast<std::int64_t>(rows) ||
        got[1] != want_s3 || got[2] != want_s4) {
      NoteFailure(result, "final relation differs from the rows written");
    }
  }
  {
    SpanRecorder::Scope span(Spans(), "engine.~Database");
    db.reset();
  }
  return rep;
}

}  // namespace

WorkloadResult RunIngestScan(const Options& options) {
  WorkloadResult result;
  Sizes sizes;
  if (options.small) {
    sizes.scans_per_client = 20;
    sizes.batches = 16;
  }
  LayerTotals totals;
  std::map<std::string, Metric>* layer =
      options.trace ? &result.per_layer : nullptr;
  const Repetition first =
      RunOnce(options.seed, sizes, result, &totals, layer);
  // A closed loop's arrivals follow its completions.
  for (const std::uint64_t v : first.fingerprint) {
    Digest(result.arrival_digest, v);
  }
  std::vector<double> setup_s = {first.setup_s};
  std::vector<double> load_s = {first.load_s};
  std::vector<double> zone_map_s = {first.zone_map_s};
  double measured_s = first.run_s;
  std::uint64_t measured_ops = first.ops;
  std::vector<double> rates = {first.ops / first.run_s};
  int reps = 1;
  // Repeat on fresh databases until the time is used (and for at least
  // five set-ups); each repetition must reproduce the first.
  while (result.failed == 0 && (measured_s < options.seconds ||
                                (!options.small && reps < 5))) {
    const Repetition again =
        RunOnce(options.seed, sizes, result, nullptr, nullptr);
    ++reps;
    setup_s.push_back(again.setup_s);
    load_s.push_back(again.load_s);
    zone_map_s.push_back(again.zone_map_s);
    measured_s += again.run_s;
    measured_ops += again.ops;
    rates.push_back(again.ops / again.run_s);
    if (again.fingerprint != first.fingerprint) {
      NoteFailure(result, "repetition diverged from the first run");
    }
  }

  char line[240];
  std::snprintf(line, sizeof line,
                "scans n=%zu p50 %.4f s p95 %.4f s, last "
                "ends at %.2f s; ingest n=%zu p95 %.4f s, last ends at "
                "%.2f s; write amplification %.4f",
                first.scan_latency.size(),
                Percentile(first.scan_latency, 0.5),
                Percentile(first.scan_latency, 0.95), first.scans_end_s,
                first.ingest_latency.size(),
                Percentile(first.ingest_latency, 0.95), first.ingest_end_s,
                first.write_amp);
  result.report.push_back(line);

  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {Median(setup_s), "s", "host",
                    "median of " + std::to_string(reps) + " set-ups"};
  e2e["host_ops_per_s"] = {
      SteadyRate(rates), "1/s", "host",
      std::to_string(measured_ops) +
          " scans and ingest batches; lower quartile of " +
          std::to_string(reps) + " repetitions"};
  const std::string scans = "n=" + std::to_string(first.scan_latency.size());
  e2e["vt_p50_s"] = {Percentile(first.scan_latency, 0.5), "s", "virtual",
                     scans + " scans"};
  e2e["vt_p95_s"] = {Percentile(first.scan_latency, 0.95), "s", "virtual",
                     scans + " scans"};
  e2e["vt_ingest_p95_s"] = {
      Percentile(first.ingest_latency, 0.95), "s", "virtual",
      "n=" + std::to_string(first.ingest_latency.size()) + " batches"};
  e2e["write_amp"] = {
      first.write_amp, "ratio", "none",
      "FtlStats: (host writes + GC relocations) / host writes"};
  result.measured_s_per_op = measured_s / static_cast<double>(measured_ops);

  if (layer != nullptr) {
    auto& l = *layer;
    l["engine.run_host_s"] = {first.sched_s, "s", "host",
                              "first repetition's scheduler run"};
    l["engine.queue_wait_p50_s"] = {Percentile(first.scan_queue_wait, 0.5),
                                    "s", "virtual", scans + " scans"};
    l["engine.queue_wait_p95_s"] = {Percentile(first.scan_queue_wait, 0.95),
                                    "s", "virtual", scans + " scans"};
    l["storage.load_s"] = {Median(load_s), "s", "host", "median per set-up"};
    l["storage.zone_map_s"] = {Median(zone_map_s), "s", "host",
                               "median per set-up"};
    l["storage.pages_loaded"] = {static_cast<double>(first.pages_loaded),
                                 "count", "none", ""};
    EmitLifecycleProbes(IngestOptions(), l);
  }
  return result;
}

}  // namespace smartssd::perfbench
