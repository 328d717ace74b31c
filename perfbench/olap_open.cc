// olap_open: independent analysts, an open loop. Seeded Poisson
// arrivals of an even Q6 / Q1 / Q14 / top-N mix are submitted with
// WorkloadScheduler::Submit at a ladder of offered rates on one Smart
// SSD database whose LINEITEM is ~9.6x its buffer pool, so scans read
// flash. Routing is the library default.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "check/result_compare.h"
#include "common/random.h"
#include "engine/executor.h"
#include "engine/workload.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

namespace smartssd::perfbench {
namespace {

constexpr double kScaleFactor = 0.05;         // LINEITEM 4,919 PAX pages
constexpr std::uint64_t kPoolPages = 512;
constexpr int kSynthColumns = 32;
constexpr std::uint64_t kSynthRows = 99'225;  // 1,575 PAX pages
constexpr std::uint64_t kSynthRRows = 1'000;
constexpr double kTopNSelectivity = 0.1;
constexpr std::uint32_t kTopNLimit = 100;

// Offered rates, queries per virtual second. The ladder is scanned
// upward; past kAlwaysRunQps it stops at the first rung that misses the
// SLO or falls behind.
constexpr double kLadder[] = {4, 8, 12, 16, 20, 24, 28, 32, 40};
constexpr double kLightQps = 4;
constexpr double kHeavyQps = 12;  // the rung nearest today's knee
// Rungs up to this rate run on every seed, so the work of a run does not
// depend on where the seed's knee falls.
constexpr double kAlwaysRunQps = 16;
constexpr double kSloP95Seconds = 0.5;  // 4x Q1's solo pushdown latency
// Backlog test: completions must keep pace with arrivals.
constexpr double kKeepUpRatio = 0.95;

constexpr int kTemplates = 4;
const char* const kTemplateNames[kTemplates] = {"q6", "q1", "q14", "topn"};

exec::QuerySpec MakeSpec(int t) {
  switch (t) {
    case 0:
      return tpch::Q6Spec("lineitem");
    case 1:
      return tpch::Q1Spec("lineitem");
    case 2:
      return tpch::Q14Spec("lineitem", "part");
    default:
      return tpch::TopNQuerySpec("synth", kSynthColumns, kTopNSelectivity,
                                 kTopNLimit);
  }
}

struct Setup {
  std::unique_ptr<engine::Database> db;
  double seconds = 0;
  double load_s = 0;
  double zone_map_s = 0;
  std::uint64_t pages = 0;
};

Setup BuildDatabase(WorkloadResult& result) {
  Setup s;
  const double t0 = HostNow();
  engine::DatabaseOptions options = engine::DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = kPoolPages;
  {
    SpanRecorder::Scope span(Spans(), "engine.Database");
    s.db = std::make_unique<engine::Database>(options);
  }
  const double t1 = HostNow();
  auto note = [&](const Result<storage::TableInfo>& info, const char* what) {
    if (info.ok()) {
      s.pages += info.value().page_count;
    } else {
      NoteFailure(result, std::string(what) + ": " +
                              info.status().ToString());
    }
  };
  {
    SpanRecorder::Scope span(Spans(), "tpch.LoadLineitem");
    note(tpch::LoadLineitem(*s.db, "lineitem", kScaleFactor,
                            storage::PageLayout::kPax),
         "load lineitem");
  }
  {
    SpanRecorder::Scope span(Spans(), "tpch.LoadPart");
    note(tpch::LoadPart(*s.db, "part", kScaleFactor,
                        storage::PageLayout::kPax),
         "load part");
  }
  {
    SpanRecorder::Scope span(Spans(), "tpch.LoadSyntheticS");
    note(tpch::LoadSyntheticS(*s.db, "synth", kSynthColumns, kSynthRows,
                              kSynthRRows, storage::PageLayout::kPax),
         "load synth");
  }
  const double t2 = HostNow();
  for (const char* table : {"lineitem", "part", "synth"}) {
    SpanRecorder::Scope span(Spans(), "engine.BuildZoneMap");
    const Status status = s.db->BuildZoneMap(table);
    if (!status.ok()) NoteFailure(result, "zone map: " + status.ToString());
  }
  const double t3 = HostNow();
  s.seconds = t3 - t0;
  s.load_s = t2 - t1;
  s.zone_map_s = t3 - t2;
  return s;
}

struct Arrival {
  SimTime at = 0;
  int tmpl = 0;
};

// Poisson arrivals at `qps` with an exactly even template mix in seeded
// order. Pure in (seed, qps, n).
std::vector<Arrival> ArrivalTrace(std::uint64_t seed, double qps, int n) {
  Random rng(seed * 1'000'003 + static_cast<std::uint64_t>(qps * 1000));
  std::vector<Arrival> trace(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) trace[i].tmpl = i % kTemplates;
  for (int i = n - 1; i > 0; --i) {
    std::swap(trace[i].tmpl,
              trace[rng.Uniform(static_cast<std::uint64_t>(i) + 1)].tmpl);
  }
  double t = 0;
  for (Arrival& a : trace) {
    t += -std::log(1.0 - rng.NextDouble()) / qps;
    a.at = static_cast<SimTime>(t * 1e9);
  }
  return trace;
}

struct RungOutcome {
  double qps = 0;
  std::vector<double> latency;     // ascending, virtual seconds
  std::vector<double> queue_wait;  // ascending, virtual seconds
  double keep_up = 0;
  bool passes = false;
  double host_s = 0;  // submitting and running the rung
  double run_s = 0;   // inside WorkloadScheduler::Run
  // (id, end, target) of every record: a replay must reproduce it.
  std::vector<std::uint64_t> fingerprint;
};

RungOutcome RunRung(engine::Database& db, std::uint64_t seed, double qps,
                    int n, const std::vector<check::ExecutionOutput>& answers,
                    WorkloadResult& result, LayerTotals* totals) {
  RungOutcome out;
  out.qps = qps;
  db.ResetForColdRun();
  db.metrics().ResetAll();
  const std::uint64_t sessions_before = db.runtime()->sessions_run();
  const std::vector<Arrival> trace = ArrivalTrace(seed, qps, n);

  const double t0 = HostNow();
  engine::WorkloadScheduler sched(&db);
  std::vector<int> tmpl_of(static_cast<std::size_t>(n) + 1, 0);
  for (const Arrival& a : trace) {
    engine::WorkloadQueryConfig config;
    config.client = "analysts";
    config.spec = MakeSpec(a.tmpl);
    const std::uint64_t id = sched.Submit(std::move(config), a.at);
    if (id < tmpl_of.size()) tmpl_of[id] = a.tmpl;
  }
  const double t1 = HostNow();
  Result<std::vector<engine::CompletedQuery>> records = [&] {
    SpanRecorder::Scope span(Spans(), "engine.WorkloadScheduler::Run");
    return sched.Run();
  }();
  const double t2 = HostNow();
  out.host_s = t2 - t0;
  out.run_s = t2 - t1;
  result.attempted += static_cast<std::uint64_t>(n);
  if (!records.ok()) {
    for (int i = 0; i < n; ++i) {
      NoteFailure(result, "scheduler: " + records.status().ToString());
    }
    return out;
  }

  SimTime first_arrival = ~SimTime{0}, last_arrival = 0;
  SimTime first_end = ~SimTime{0}, last_end = 0;
  int missed = 0;
  for (const engine::CompletedQuery& r : records.value()) {
    first_arrival = std::min(first_arrival, r.arrival);
    last_arrival = std::max(last_arrival, r.arrival);
    first_end = std::min(first_end, r.end);
    last_end = std::max(last_end, r.end);
    out.fingerprint.push_back(r.id);
    out.fingerprint.push_back(r.end);
    if (!r.result.ok()) {
      ++missed;
      NoteFailure(result, "query " + std::to_string(r.id) + ": " +
                              r.result.status().ToString());
      continue;
    }
    const engine::QueryResult& q = r.result.value();
    out.fingerprint.push_back(static_cast<std::uint64_t>(q.stats.target));
    const int t = r.id < tmpl_of.size() ? tmpl_of[r.id] : 0;
    const Status same = check::CompareOutputs(
        answers[static_cast<std::size_t>(t)],
        check::FromQuery("scheduled", q));
    if (!same.ok()) {
      ++missed;
      NoteFailure(result, std::string(kTemplateNames[t]) +
                              " differs from its host-path answer: " +
                              same.ToString());
      continue;
    }
    out.latency.push_back(ToSeconds(r.latency()));
    out.queue_wait.push_back(ToSeconds(r.queue_wait()));
    if (totals != nullptr) totals->AddQuery(q.stats);
  }
  if (static_cast<int>(records.value().size()) != n) {
    NoteFailure(result, "scheduler lost queries");
    missed += n - static_cast<int>(records.value().size());
  }
  std::sort(out.latency.begin(), out.latency.end());
  std::sort(out.queue_wait.begin(), out.queue_wait.end());
  // A failed query misses the SLO: it counts as +inf in the p95.
  std::vector<double> slo_sample = out.latency;
  slo_sample.insert(slo_sample.end(), static_cast<std::size_t>(missed),
                    INFINITY);
  const double arrival_span = ToSeconds(last_arrival - first_arrival);
  const double done_span = ToSeconds(last_end - first_end);
  out.keep_up = done_span > 0 ? arrival_span / done_span : 0;
  out.passes = Percentile(slo_sample, 0.95) <= kSloP95Seconds &&
               out.keep_up >= kKeepUpRatio;
  if (totals != nullptr) {
    totals->sessions += db.runtime()->sessions_run() - sessions_before;
    totals->AddDatabase(db, last_end - first_arrival);
  }
  return out;
}

}  // namespace

WorkloadResult RunOlapOpen(const Options& options) {
  WorkloadResult result;
  const int per_rung = options.small ? 24 : 200;
  const int setups = options.small ? 1 : 7;

  // --- Set-up: build, load and zone-map the database several times;
  // the last one is measured. ---
  std::vector<double> setup_s, load_s, zone_map_s;
  Setup setup;
  for (int i = 0; i < setups; ++i) {
    if (setup.db != nullptr) {
      SpanRecorder::Scope span(Spans(), "engine.~Database");
      setup.db.reset();
    }
    setup = BuildDatabase(result);
    setup_s.push_back(setup.seconds);
    load_s.push_back(setup.load_s);
    zone_map_s.push_back(setup.zone_map_s);
  }
  if (result.failed > 0) return result;
  engine::Database& db = *setup.db;

  // --- Each template's host-path answer, before timing starts. ---
  std::vector<check::ExecutionOutput> answers;
  for (int t = 0; t < kTemplates; ++t) {
    db.ResetForColdRun();
    engine::QueryExecutor executor(&db);
    const exec::QuerySpec spec = MakeSpec(t);
    SpanRecorder::Scope span(Spans(), "engine.QueryExecutor::Execute");
    Result<engine::QueryResult> r =
        executor.Execute(spec, engine::ExecutionTarget::kHost);
    if (!r.ok()) {
      NoteFailure(result, "reference answer: " + r.status().ToString());
      return result;
    }
    answers.push_back(check::FromQuery("host", r.value()));
  }

  for (const double qps : {kLightQps, kHeavyQps}) {
    for (const Arrival& a : ArrivalTrace(options.seed, qps, per_rung)) {
      Digest(result.arrival_digest, a.at);
      Digest(result.arrival_digest, static_cast<std::uint64_t>(a.tmpl));
    }
  }

  // --- Measured phase: the ladder once, then replays of its rungs in
  // turn until the time is used; every replay must reproduce its first
  // records. ---
  LayerTotals totals;
  std::vector<RungOutcome> ladder;
  std::vector<double> rates;  // queries per host second of each rung run
  double measured_s = 0;
  std::uint64_t measured_ops = 0;
  const RungOutcome* light = nullptr;
  const RungOutcome* heavy = nullptr;
  double max_qps = 0;
  bool scanning = true;  // no rung has missed yet
  ladder.reserve(std::size(kLadder));
  for (const double qps : kLadder) {
    if (!scanning && qps > kAlwaysRunQps) break;
    ladder.push_back(RunRung(db, options.seed, qps, per_rung, answers,
                             result, &totals));
    const RungOutcome& rung = ladder.back();
    rates.push_back(per_rung / rung.host_s);
    measured_s += rung.host_s;
    measured_ops += static_cast<std::uint64_t>(per_rung);
    if (scanning && rung.passes) max_qps = qps;
    if (!rung.passes) scanning = false;
    if (qps == kLightQps) light = &rung;
    if (qps == kHeavyQps) heavy = &rung;
  }
  for (std::size_t i = 0; measured_s < options.seconds; ++i) {
    const RungOutcome& first = ladder[i % ladder.size()];
    const RungOutcome again = RunRung(db, options.seed, first.qps, per_rung,
                                      answers, result, nullptr);
    rates.push_back(per_rung / again.host_s);
    measured_s += again.host_s;
    measured_ops += static_cast<std::uint64_t>(per_rung);
    if (again.fingerprint != first.fingerprint) {
      NoteFailure(result, "replay of the " + std::to_string(first.qps) +
                              " q/s rung diverged from its first run");
    }
  }
  for (const RungOutcome& rung : ladder) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "rung %5.1f q/s: n=%zu p50 %.4f s p95 %.4f s keep-up %.3f "
                  "%s",
                  rung.qps, rung.latency.size(), Percentile(rung.latency, 0.5),
                  Percentile(rung.latency, 0.95), rung.keep_up,
                  rung.passes ? "meets SLO" : "misses SLO");
    result.report.push_back(line);
  }

  auto& e2e = result.end_to_end;
  const std::string n = "n=" + std::to_string(per_rung);
  e2e["setup_s"] = {Median(setup_s), "s", "host",
                    "median of " + std::to_string(setups) + " set-ups"};
  // Replays visit the rungs in ladder order, so every run takes the
  // quartile over the same rung mix.
  e2e["host_ops_per_s"] = {SteadyRate(rates), "1/s", "host",
                           std::to_string(measured_ops) +
                               " queries; lower quartile of " +
                               std::to_string(rates.size()) + " rung runs"};
  if (heavy != nullptr) {
    e2e["vt_p50_s"] = {Percentile(heavy->latency, 0.5), "s", "virtual",
                       n + " at heavy (12 q/s)"};
    e2e["vt_p95_s"] = {Percentile(heavy->latency, 0.95), "s", "virtual",
                       n + " at heavy (12 q/s)"};
  }
  if (light != nullptr) {
    e2e["vt_light_p50_s"] = {Percentile(light->latency, 0.5), "s", "virtual",
                             n + " at light (4 q/s)"};
    e2e["vt_light_p95_s"] = {Percentile(light->latency, 0.95), "s",
                             "virtual", n + " at light (4 q/s)"};
  }
  e2e["vt_max_qps"] = {max_qps, "1/s", "virtual",
                       "highest rung with p95 <= 0.5 s that keeps up"};
  result.measured_s_per_op = measured_s / static_cast<double>(measured_ops);

  if (!options.trace) return result;

  // --- Traced run only: per-layer probes and counters. ---
  auto& layer = result.per_layer;
  totals.Emit(db, layer);
  double ladder_host_s = 0;
  for (const RungOutcome& rung : ladder) ladder_host_s += rung.run_s;
  layer["engine.run_host_s"] = {ladder_host_s, "s", "host",
                                "the ladder's first pass"};
  if (heavy != nullptr) {
    layer["engine.queue_wait_p50_s"] = {Percentile(heavy->queue_wait, 0.5),
                                        "s", "virtual", n + " at heavy"};
    layer["engine.queue_wait_p95_s"] = {Percentile(heavy->queue_wait, 0.95),
                                        "s", "virtual", n + " at heavy"};
  }
  int regret = 0;
  for (int t = 0; t < kTemplates; ++t) {
    const SoloProbe probe = ProbeSolo(db, MakeSpec(t), result);
    regret += probe.regret ? 1 : 0;
    for (int side = 0; side < 2; ++side) {
      const std::string key = std::string(kTemplateNames[t]) +
                              (side == 0 ? ".host" : ".device");
      layer["engine.solo_host_ms." + key] = {probe.host_ms[side], "ms",
                                             "host", "one cold Execute"};
      layer["engine.solo_vt_s." + key] = {probe.vt_s[side], "s", "virtual",
                                          "one cold Execute"};
    }
  }
  layer["engine.placement_regret"] = {
      regret / double{kTemplates}, "ratio", "virtual",
      std::to_string(regret) + " of 4 templates"};
  layer["storage.load_s"] = {Median(load_s), "s", "host", "median per set-up"};
  layer["storage.zone_map_s"] = {Median(zone_map_s), "s", "host",
                                 "median per set-up"};
  layer["storage.pages_loaded"] = {static_cast<double>(setup.pages), "count",
                                   "none", ""};
  {
    engine::DatabaseOptions shape = engine::DatabaseOptions::PaperSmartSsd();
    shape.buffer_pool_pages = kPoolPages;
    EmitLifecycleProbes(shape, layer);
  }
  return result;
}

}  // namespace smartssd::perfbench
