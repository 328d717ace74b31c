// Workload-level view of query placement: open-loop client streams at
// increasing arrival rates, swept across four routings — every query
// pinned to the host (static-host) or to the device (static-device)
// through WorkloadQueryConfig::target, and the two placement policies,
// cost-model and adaptive (engine/placement.h). The paper argues
// per-query (Figures 3/7); this sweep asks what the same device
// trade-off looks like under load, on two traffics:
//
//   q6   two clients of TPC-H Q6 over two LINEITEM copies (PAX, no zone
//        map), 16 queries per point;
//   mix  four clients, one per template of an even Q6 / Q1 / Q14
//        (LINEITEM join PART) / top-N (32-column synthetic table) mix,
//        on PAX tables with zone maps, 32 queries per point.
//
// A pure strategy saturates at its own path's service rate. Adaptive
// splits every splittable scan across both sides and sends whole
// queries to the host while the device's session grants are all held,
// so both sides work at once. The gate: on each traffic, adaptive's
// saturation throughput must strictly beat static-host, static-device
// and cost-model.
//
// Each (traffic, routing, qps) point runs on a cold database with a
// deliberately small buffer pool (512 pages) so every scan pays flash
// reads, then reports exact percentiles over the per-query latencies
// plus the mean admission-queue wait. `--json=<path>` (committed as
// BENCH_workload.json) emits one row per point with p95 latency as the
// headline number and achieved/offered throughput as the measured
// ratio, plus one `saturation:<routing>` row per routing carrying the
// achieved QPS at the top of the sweep (mix rows are prefixed `mix/`).
// Everything runs on the virtual clock, so the emitted numbers are
// byte-identical run-to-run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "engine/workload.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {

constexpr double kScaleFactor = 0.05;
constexpr std::uint64_t kPoolPages = 512;  // keep repeated scans cold

// The mix traffic's top-N table: the olap_open template's shape.
constexpr int kSynthColumns = 32;
constexpr std::uint64_t kSynthRows = 99'225;
constexpr std::uint64_t kSynthRRows = 1'000;

// Exact percentile over the measured sample (nearest-rank), not an
// interpolation: every reported number is one query's actual latency.
double PercentileSeconds(std::vector<SimDuration> sorted, double q) {
  const std::size_t n = sorted.size();
  std::size_t rank =
      static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  if (rank > n) rank = n;
  return ToSeconds(sorted[rank - 1]);
}

struct PointResult {
  double achieved = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  double mean_queue_wait = 0;
  int peak_in_flight = 0;
  double splits = 0;        // queries that ran as split scans
  double device_share = 0;  // fraction whose target was the device
};

// One client of a traffic: a name and the one spec it repeats.
struct Client {
  std::string name;
  std::function<exec::QuerySpec()> spec;
};

// A traffic: its clients share the arrival rate evenly, in a fixed
// round-robin order with no simultaneous arrivals.
struct Traffic {
  std::string name;
  std::string row_prefix;  // JSON config prefix
  engine::Database* db = nullptr;
  std::vector<Client> clients;
  int queries_per_point = 0;
};

// One row group of the sweep: a side pinned on every query, or (no
// target) the placement policy routing each one.
struct Routing {
  const char* name;
  std::optional<engine::ExecutionTarget> target;
  engine::PlacementPolicyKind policy;
};

const Routing kRoutings[] = {
    {"static-host", engine::ExecutionTarget::kHost,
     engine::PlacementPolicyKind::kCostModel},
    {"static-device", engine::ExecutionTarget::kSmartSsd,
     engine::PlacementPolicyKind::kCostModel},
    {"cost-model", std::nullopt, engine::PlacementPolicyKind::kCostModel},
    {"adaptive", std::nullopt, engine::PlacementPolicyKind::kAdaptive},
};

// Q6 solo service time is ~0.044 s pushdown / ~0.073 s host at this
// scale factor, so this sweep crosses saturation for every routing; the
// last rate is the saturation measurement point.
const double kQps[] = {5, 10, 20, 40};

PointResult RunPoint(const Traffic& traffic, const Routing& routing,
                     double qps) {
  engine::Database& db = *traffic.db;
  db.ResetForColdRun();
  db.set_placement(routing.policy);
  engine::WorkloadScheduler sched(&db);
  const auto gap = static_cast<SimDuration>(1e9 / qps);
  const int n = static_cast<int>(traffic.clients.size());
  // Client i arrives every n gaps, offset by i gaps, so the combined
  // stream arrives at `qps`.
  for (int i = 0; i < n; ++i) {
    engine::WorkloadQueryConfig config;
    config.client = traffic.clients[i].name;
    config.spec = traffic.clients[i].spec();
    config.target = routing.target;
    sched.AddOpenLoopClient(std::move(config), traffic.queries_per_point / n,
                            /*inter_arrival=*/n * gap,
                            /*first_arrival=*/i * gap);
  }
  const std::vector<engine::CompletedQuery> records =
      bench::Unwrap(sched.Run(), "workload point");

  PointResult point;
  std::vector<SimDuration> latencies;
  SimTime first_arrival = records.front().arrival;
  SimTime last_end = 0;
  double queue_wait = 0;
  for (const auto& r : records) {
    bench::Check(r.result.status(), "workload query");
    const engine::QueryStats& stats = r.result.value().stats;
    latencies.push_back(r.latency());
    first_arrival = std::min(first_arrival, r.arrival);
    last_end = std::max(last_end, r.end);
    queue_wait += ToSeconds(r.queue_wait());
    if (stats.split_scan) point.splits += 1;
    if (stats.target == engine::ExecutionTarget::kSmartSsd) {
      point.device_share += 1;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const double span = ToSeconds(last_end - first_arrival);
  point.achieved = span > 0 ? static_cast<double>(records.size()) / span : 0;
  point.p50 = PercentileSeconds(latencies, 0.50);
  point.p95 = PercentileSeconds(latencies, 0.95);
  point.p99 = PercentileSeconds(latencies, 0.99);
  point.mean_queue_wait = queue_wait / static_cast<double>(records.size());
  point.peak_in_flight = sched.peak_in_flight();
  point.device_share /= static_cast<double>(records.size());
  return point;
}

// Sweeps every routing over the rate grid on one traffic, printing and
// reporting each point. Returns false when the gate fails.
bool RunTraffic(const Traffic& traffic, bench::JsonReporter& reporter) {
  std::printf("traffic %s: %d queries per point\n", traffic.name.c_str(),
              traffic.queries_per_point);
  std::printf("%-13s %6s | %8s %8s %8s | %9s %10s %5s %6s\n", "routing",
              "qps", "p50 s", "p95 s", "p99 s", "qwait s", "achieved",
              "split", "dev%");
  bench::PrintRule();

  const double saturation_qps = kQps[std::size(kQps) - 1];
  std::vector<std::pair<std::string, double>> saturation;
  for (const Routing& routing : kRoutings) {
    const char* name = routing.name;
    PointResult last{};
    for (const double qps : kQps) {
      const PointResult point = RunPoint(traffic, routing, qps);
      last = point;
      std::printf(
          "%-13s %6.0f | %8.4f %8.4f %8.4f | %9.4f %7.1f/s %5.0f %5.0f%%\n",
          name, qps, point.p50, point.p95, point.p99,
          point.mean_queue_wait, point.achieved, point.splits,
          100 * point.device_share);
      char config[64];
      std::snprintf(config, sizeof config, "%s%s@%gqps",
                    traffic.row_prefix.c_str(), name, qps);
      reporter.AddWithCounters(
          config, point.p95, NAN, point.achieved / qps,
          {{"achieved_qps", point.achieved},
           {"split_scans", point.splits},
           {"device_share", point.device_share},
           {"peak_in_flight",
            static_cast<double>(point.peak_in_flight)}});
    }
    // The last sweep point is past every routing's knee, so its
    // achieved throughput is the routing's saturation rate.
    saturation.emplace_back(name, last.achieved);
    char config[64];
    std::snprintf(config, sizeof config, "saturation:%s%s",
                  traffic.row_prefix.c_str(), name);
    reporter.Add(config, last.achieved, NAN,
                 last.achieved / saturation_qps);
    bench::PrintRule();
  }

  // kRoutings ends with adaptive; the gate compares it to the rest.
  const double adaptive_sat = saturation.back().second;
  bool beats_all = true;
  for (const auto& [name, qps] : saturation) {
    std::printf("saturation %-13s %6.1f queries/s\n", name.c_str(), qps);
    if (name != "adaptive") beats_all &= adaptive_sat > qps;
  }
  std::printf(
      "Shape check (%s): the adaptive policy's saturation throughput "
      "(%.1f/s) must strictly beat static-host, static-device and "
      "cost-model: %s\n\n",
      traffic.name.c_str(), adaptive_sat, beats_all ? "ok" : "FAIL");
  if (!beats_all) {
    std::fprintf(stderr,
                 "FAIL: %s: adaptive saturation %.2f/s does not beat "
                 "static-host, static-device and cost-model\n",
                 traffic.name.c_str(), adaptive_sat);
  }
  return beats_all;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Routing sweep: arrival rate vs latency and saturation across "
      "static-host / static-device / cost-model / adaptive placement, "
      "on Q6 and on a Q6/Q1/Q14/top-N mix",
      "extension of Section 5's concurrent-query discussion");
  bench::JsonReporter reporter("workload_routing", argc, argv);

  engine::DatabaseOptions options = engine::DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = kPoolPages;

  engine::Database q6_db(options);
  bench::Unwrap(tpch::LoadLineitem(q6_db, "lineitem_a", kScaleFactor,
                                   storage::PageLayout::kPax),
                "load A");
  bench::Unwrap(tpch::LoadLineitem(q6_db, "lineitem_b", kScaleFactor,
                                   storage::PageLayout::kPax),
                "load B");
  const Traffic q6{
      .name = "q6",
      .row_prefix = "",
      .db = &q6_db,
      .clients = {{"client-a", [] { return tpch::Q6Spec("lineitem_a"); }},
                  {"client-b", [] { return tpch::Q6Spec("lineitem_b"); }}},
      .queries_per_point = 16,
  };

  engine::Database mix_db(options);
  bench::Unwrap(tpch::LoadLineitem(mix_db, "lineitem", kScaleFactor,
                                   storage::PageLayout::kPax),
                "load lineitem");
  bench::Unwrap(
      tpch::LoadPart(mix_db, "part", kScaleFactor, storage::PageLayout::kPax),
      "load part");
  bench::Unwrap(tpch::LoadSyntheticS(mix_db, "synth", kSynthColumns,
                                     kSynthRows, kSynthRRows,
                                     storage::PageLayout::kPax),
                "load synth");
  for (const char* table : {"lineitem", "part", "synth"}) {
    bench::Check(mix_db.BuildZoneMap(table), "zone map");
  }
  const Traffic mix{
      .name = "mix",
      .row_prefix = "mix/",
      .db = &mix_db,
      .clients = {{"q6", [] { return tpch::Q6Spec("lineitem"); }},
                  {"q1", [] { return tpch::Q1Spec("lineitem"); }},
                  {"q14", [] { return tpch::Q14Spec("lineitem", "part"); }},
                  {"topn",
                   [] {
                     return tpch::TopNQuerySpec("synth", kSynthColumns, 0.1,
                                                100);
                   }}},
      .queries_per_point = 32,
  };

  bool ok = true;
  for (const Traffic* traffic : {&q6, &mix}) {
    ok &= RunTraffic(*traffic, reporter);
  }
  if (!ok) return 1;
  reporter.Write();
  return 0;
}
