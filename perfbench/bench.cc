#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "engine/executor.h"
#include "ssd/ssd_device.h"

namespace smartssd::perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name)
    : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  index_ = static_cast<int>(recorder_.spans_.size());
  recorder_.spans_.push_back({name, HostNow(), 0, recorder_.open_});
  recorder_.open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = recorder_.spans_[static_cast<std::size_t>(index_)];
  span.end = HostNow();
  recorder_.open_ = span.parent;
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::SelfTimes()
    const {
  std::vector<double> child(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& entry = out[spans_[i].name];
    ++entry.count;
    entry.seconds += spans_[i].end - spans_[i].start - child[i];
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span.name.c_str(),
                 (span.start - origin) * 1e6,
                 (span.end - span.start) * 1e6, i, span.parent);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

SpanRecorder& Spans() {
  static SpanRecorder recorder;
  return recorder;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t n = sorted.size();
  auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  return sorted[std::min(rank, n) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double SteadyRate(std::vector<double> unit_rates) {
  std::sort(unit_rates.begin(), unit_rates.end());
  return Percentile(unit_rates, 0.25);
}

void NoteFailure(WorkloadResult& result, const std::string& what) {
  ++result.failed;
  if (result.failed <= 5) result.report.push_back("FAILED: " + what);
}

void LayerTotals::AddQuery(const engine::QueryStats& stats) {
  ++ops;
  tuples += stats.counts.tuples;
  host_cycles += stats.host_cycles;
  embedded_cycles += stats.embedded_cycles;
  host_link_bytes += stats.bytes_over_host_link;
  gets += stats.session.gets_issued;
  if (stats.target == engine::ExecutionTarget::kSmartSsd) ++device_ops;
  if (stats.split_scan) ++split_ops;
}

void LayerTotals::AddDatabase(const engine::Database& db,
                              SimDuration pass_span) {
  const obs::MetricsRegistry& m = db.metrics();
  pool_hits += m.CounterValue("bufferpool.hits");
  pool_misses += m.CounterValue("bufferpool.misses");
  pool_evictions += m.CounterValue("bufferpool.evictions");
  flash_page_reads += m.CounterValue("flash.page_reads");
  ecc_retries += m.CounterValue("flash.ecc_retries");
  const engine::StageBreakdown s = db.StageSnapshot();
  busy.flash_chip += s.flash_chip;
  busy.flash_channel += s.flash_channel;
  busy.dram_bus += s.dram_bus;
  busy.host_link += s.host_link;
  busy.embedded_cpu += s.embedded_cpu;
  busy.host_cpu += s.host_cpu;
  span += pass_span;
  if (db.runtime() != nullptr) {
    max_active_sessions =
        std::max(max_active_sessions, db.runtime()->max_active_sessions());
  }
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Util(SimDuration busy, SimDuration span, double servers) {
  return Ratio(static_cast<double>(busy),
               static_cast<double>(span) * servers);
}

}  // namespace

void LayerTotals::Emit(engine::Database& db,
                       std::map<std::string, Metric>& out) const {
  const double n = static_cast<double>(ops);
  out["bufferpool.hit_rate"] = {
      Ratio(static_cast<double>(pool_hits),
            static_cast<double>(pool_hits + pool_misses)),
      "ratio", "none", "hits / (hits + misses)"};
  out["bufferpool.evictions"] = {static_cast<double>(pool_evictions),
                                 "count", "none", ""};
  out["engine.device_share"] = {Ratio(static_cast<double>(device_ops), n),
                                "ratio", "none",
                                "ops whose target is the device"};
  out["engine.split_share"] = {Ratio(static_cast<double>(split_ops), n),
                               "ratio", "none", "ops run as split scans"};
  out["flash.page_reads_per_op"] = {
      Ratio(static_cast<double>(flash_page_reads), n), "count", "none", ""};
  out["flash.ecc_retries"] = {static_cast<double>(ecc_retries), "count",
                              "none", ""};
  out["smart.sessions"] = {static_cast<double>(sessions), "count", "none",
                           ""};
  out["smart.gets_per_session"] = {
      Ratio(static_cast<double>(gets), static_cast<double>(sessions)),
      "count", "none", ""};
  out["smart.max_active_sessions"] = {
      static_cast<double>(max_active_sessions), "count", "none", ""};
  out["exec.tuples_per_op"] = {Ratio(static_cast<double>(tuples), n),
                               "count", "none", ""};
  out["exec.host_cycles_per_op"] = {
      Ratio(static_cast<double>(host_cycles), n), "count", "none", ""};
  out["exec.embedded_cycles_per_op"] = {
      Ratio(static_cast<double>(embedded_cycles), n), "count", "none", ""};
  out["ssd.host_link_bytes_per_op"] = {
      Ratio(static_cast<double>(host_link_bytes), n), "B", "none", ""};

  ssd::SsdDevice* ssd = db.ssd();
  if (ssd == nullptr) return;
  const ftl::FtlStats& ftl = ssd->ftl().stats();
  out["ftl.gc_runs"] = {static_cast<double>(ftl.gc_runs), "count", "none",
                        ""};
  out["ftl.gc_relocations"] = {static_cast<double>(ftl.gc_relocations),
                               "count", "none", ""};
  out["ftl.block_erases"] = {static_cast<double>(ftl.block_erases), "count",
                             "none", ""};
  out["ftl.gc_pause_p99_ms"] = {
      db.metrics().SnapshotHistogram("ftl.gc_pause_ns").p99 / 1e6, "ms",
      "virtual", "obs histogram, bucket-interpolated"};
  const ssd::SsdConfig& config = ssd->config();
  const double chips = static_cast<double>(config.geometry.channels) *
                       config.geometry.chips_per_channel;
  const auto cores = static_cast<double>(ssd->embedded_cores());
  out["ssd.embedded_cpu_util"] = {Util(busy.embedded_cpu, span, cores),
                                  "ratio", "virtual",
                                  "busy / (span x cores)"};
  out["ssd.dram_bus_util"] = {
      Util(busy.dram_bus, span, config.dram.bus_count), "ratio", "virtual",
      "busy / (span x buses)"};
  out["ssd.host_link_util"] = {Util(busy.host_link, span, 1), "ratio",
                               "virtual", "busy / span"};
  out["flash.chip_util"] = {Util(busy.flash_chip, span, chips), "ratio",
                            "virtual", "busy / (span x chips)"};
  out["flash.channel_util"] = {
      Util(busy.flash_channel, span, config.geometry.channels), "ratio",
      "virtual", "busy / (span x channels)"};
  out["flash.stored_mb"] = {
      static_cast<double>(ssd->flash_array().store().allocated_bytes()) /
          static_cast<double>(kMiB),
      "MiB", "none", "BackingStore::allocated_bytes"};
}

SoloProbe ProbeSolo(engine::Database& db, const exec::QuerySpec& spec,
                    WorkloadResult& result) {
  SoloProbe probe;
  const engine::ExecutionTarget targets[2] = {
      engine::ExecutionTarget::kHost, engine::ExecutionTarget::kSmartSsd};
  for (int side = 0; side < 2; ++side) {
    db.ResetForColdRun();
    engine::QueryExecutor executor(&db);
    const double t0 = HostNow();
    Result<engine::QueryResult> r = [&] {
      SpanRecorder::Scope span(Spans(), "engine.QueryExecutor::Execute");
      return executor.Execute(spec, targets[side]);
    }();
    probe.host_ms[side] = (HostNow() - t0) * 1e3;
    if (!r.ok()) {
      NoteFailure(result, "solo probe: " + r.status().ToString());
      return probe;
    }
    probe.vt_s[side] = r.value().stats.elapsed_seconds();
  }
  db.ResetForColdRun();
  engine::QueryExecutor executor(&db);
  Result<engine::QueryResult> chosen = [&] {
    SpanRecorder::Scope span(Spans(), "engine.QueryExecutor::ExecuteAuto");
    return executor.ExecuteAuto(spec);
  }();
  if (!chosen.ok()) {
    NoteFailure(result, "auto probe: " + chosen.status().ToString());
    return probe;
  }
  const int side =
      chosen.value().stats.target == engine::ExecutionTarget::kSmartSsd;
  probe.regret = probe.vt_s[side] > probe.vt_s[1 - side];
  return probe;
}

namespace {

// Median host milliseconds to construct, and to destroy, a T built from
// `arg`, over seven rounds.
template <typename T, typename Arg>
std::pair<double, double> LifecycleMs(const char* create_span,
                                      const char* destroy_span,
                                      const Arg& arg) {
  std::vector<double> create, destroy;
  for (int i = 0; i < 7; ++i) {
    std::unique_ptr<T> object;
    {
      SpanRecorder::Scope span(Spans(), create_span);
      const double t0 = HostNow();
      object = std::make_unique<T>(arg);
      create.push_back((HostNow() - t0) * 1e3);
    }
    SpanRecorder::Scope span(Spans(), destroy_span);
    const double t0 = HostNow();
    object.reset();
    destroy.push_back((HostNow() - t0) * 1e3);
  }
  return {Median(create), Median(destroy)};
}

}  // namespace

void EmitLifecycleProbes(const engine::DatabaseOptions& options,
                         std::map<std::string, Metric>& out) {
  const auto [db_create, db_destroy] = LifecycleMs<engine::Database>(
      "engine.Database", "engine.~Database", options);
  out["engine.db_create_ms"] = {db_create, "ms", "host",
                                "median of 7, empty database"};
  out["engine.db_destroy_ms"] = {db_destroy, "ms", "host",
                                 "median of 7, empty database"};
  const auto [ssd_create, ssd_destroy] = LifecycleMs<ssd::SsdDevice>(
      "ssd.SsdDevice", "ssd.~SsdDevice", ssd::SsdConfig::PaperSmartSsd());
  out["ssd.device_create_ms"] = {ssd_create, "ms", "host",
                                 "median of 7, paper geometry"};
  out["ssd.device_destroy_ms"] = {ssd_destroy, "ms", "host",
                                  "median of 7, paper geometry"};
}

namespace {

struct PerLayerName {
  const char* name;
  const char* unit;
  const char* clock;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr PerLayerName kPerLayer[] = {
    {"engine.run_host_s", "s", "host"},
    {"engine.queue_wait_p50_s", "s", "virtual"},
    {"engine.queue_wait_p95_s", "s", "virtual"},
    {"engine.placement_regret", "ratio", "virtual"},
    {"engine.device_share", "ratio", "none"},
    {"engine.split_share", "ratio", "none"},
    {"engine.solo_host_ms.q6.host", "ms", "host"},
    {"engine.solo_host_ms.q6.device", "ms", "host"},
    {"engine.solo_host_ms.q1.host", "ms", "host"},
    {"engine.solo_host_ms.q1.device", "ms", "host"},
    {"engine.solo_host_ms.q14.host", "ms", "host"},
    {"engine.solo_host_ms.q14.device", "ms", "host"},
    {"engine.solo_host_ms.topn.host", "ms", "host"},
    {"engine.solo_host_ms.topn.device", "ms", "host"},
    {"engine.solo_vt_s.q6.host", "s", "virtual"},
    {"engine.solo_vt_s.q6.device", "s", "virtual"},
    {"engine.solo_vt_s.q1.host", "s", "virtual"},
    {"engine.solo_vt_s.q1.device", "s", "virtual"},
    {"engine.solo_vt_s.q14.host", "s", "virtual"},
    {"engine.solo_vt_s.q14.device", "s", "virtual"},
    {"engine.solo_vt_s.topn.host", "s", "virtual"},
    {"engine.solo_vt_s.topn.device", "s", "virtual"},
    {"engine.db_create_ms", "ms", "host"},
    {"engine.db_destroy_ms", "ms", "host"},
    {"bufferpool.hit_rate", "ratio", "none"},
    {"bufferpool.evictions", "count", "none"},
    {"ssd.embedded_cpu_util", "ratio", "virtual"},
    {"ssd.dram_bus_util", "ratio", "virtual"},
    {"ssd.host_link_util", "ratio", "virtual"},
    {"ssd.host_link_bytes_per_op", "B", "none"},
    {"ssd.device_create_ms", "ms", "host"},
    {"ssd.device_destroy_ms", "ms", "host"},
    {"flash.page_reads_per_op", "count", "none"},
    {"flash.ecc_retries", "count", "none"},
    {"flash.chip_util", "ratio", "virtual"},
    {"flash.channel_util", "ratio", "virtual"},
    {"flash.stored_mb", "MiB", "none"},
    {"ftl.gc_runs", "count", "none"},
    {"ftl.gc_relocations", "count", "none"},
    {"ftl.block_erases", "count", "none"},
    {"ftl.gc_pause_p99_ms", "ms", "virtual"},
    {"smart.sessions", "count", "none"},
    {"smart.gets_per_session", "count", "none"},
    {"smart.max_active_sessions", "count", "none"},
    {"storage.load_s", "s", "host"},
    {"storage.zone_map_s", "s", "host"},
    {"storage.pages_loaded", "count", "none"},
    {"exec.tuples_per_op", "count", "none"},
    {"exec.host_cycles_per_op", "count", "none"},
    {"exec.embedded_cycles_per_op", "count", "none"},
    {"check.seed_host_s", "s", "host"},
    {"check.executions_per_spec", "count", "none"},
    {"check.fallbacks", "count", "none"},
    {"obs.trace_overhead", "ratio", "host"},
};

}  // namespace

void FillMissingPerLayer(std::map<std::string, Metric>& out) {
  for (const PerLayerName& entry : kPerLayer) {
    if (out.count(entry.name) == 0) {
      out[entry.name] = {0, entry.unit, entry.clock,
                         "layer not exercised by this workload"};
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace smartssd::perfbench
