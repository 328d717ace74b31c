// Fleet robustness sweep: a closed-loop Q6 stream scattered across
// 1/2/4/8 Smart SSDs by the fault-tolerant ExecuteOnFleet, plus a
// variant where one device of the 4-wide fleet starts failing every
// session mid-workload. Healthy fleets show the Section 4.3 scale-out
// (throughput grows near-linearly with devices because each subquery
// scans 1/N of the partitioned LINEITEM); the faulted fleet shows the
// robustness ladder earning its keep — every query still completes with
// byte-identical results (host fallback, then breaker-open re-dispatch)
// at the cost of visible p99 inflation.
//
// A second table is the Section 4.3 appliance ("the host machine could
// simply be the coordinator that stages computation across an array of
// Smart SSDs"): one cold Q6 per 1/2/4/8-device fleet, projected to
// SF 100, against one SAS SSD running Q6 on the host. The host only
// merges 8-byte partials, so scaling is near-linear. Its fleets are its
// own, with the default buffer pool, so the sweep's rows do not move.
//
// `--json=<path>` emits one row per fleet configuration with p99
// latency as the headline number, achieved-QPS speedup over the
// 1-device fleet as the measured ratio, and a "counters" object
// carrying the robustness counters (re-dispatches, fallbacks, breaker
// trips) for the CI artifact trail.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/executor.h"
#include "engine/fleet.h"
#include "sim/fault_injector.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {

constexpr double kScaleFactor = 0.05;
constexpr int kQueries = 16;

double PercentileSeconds(std::vector<SimDuration> sorted, double q) {
  const std::size_t n = sorted.size();
  std::size_t rank =
      static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  if (rank > n) rank = n;
  return ToSeconds(sorted[rank - 1]);
}

struct PointStats {
  double p50 = 0;
  double p99 = 0;
  double qps = 0;
  std::uint64_t redispatches = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t trips = 0;
};

// One sweep point: a fresh fleet, LINEITEM partitioned across its
// devices, a closed-loop client running kQueries Q6s back to back.
// Every result is checked against the single-device reference — the
// faulted point completes through fallback and re-dispatch, never by
// dropping a partition.
PointStats RunPoint(int devices, bool fault_one_device,
                    const exec::QuerySpec& spec,
                    const std::vector<std::int64_t>& reference) {
  engine::DatabaseOptions options =
      engine::DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = 512;  // keep repeated scans cold
  engine::Fleet fleet(devices, options);
  bench::Check(tpch::LoadLineitemFleet(fleet, "lineitem", kScaleFactor,
                                       storage::PageLayout::kPax),
               "fleet load");

  if (fault_one_device) {
    // From 50 ms of virtual time on, every session on the middle device
    // dies at OPEN: the first few queries pay the in-query host
    // fallback, the breaker opens, and later queries re-dispatch that
    // partition straight to the host path.
    sim::FaultSchedule schedule;
    schedule.faults.push_back(sim::FaultSpec{
        .kind = sim::FaultKind::kDeviceReset,
        .trigger = {.unit = sim::TriggerUnit::kSimTime,
                    .at = 50 * kMillisecond},
        .count = 1000});
    fleet.LoadFaultSchedule(devices / 2, std::move(schedule));
  }

  // Closed loop, think time 0: each query starts when the previous one
  // delivered its merged result.
  std::vector<SimDuration> latencies;
  SimTime now = 0;
  for (int i = 0; i < kQueries; ++i) {
    const engine::FleetQueryResult result = bench::Unwrap(
        engine::ExecuteOnFleet(fleet, spec,
                               engine::ExecutionTarget::kSmartSsd, now),
        "fleet query");
    if (result.agg_values != reference) {
      std::fprintf(stderr, "fleet result diverged from single-device\n");
      std::exit(1);
    }
    latencies.push_back(result.elapsed());
    now = result.end;
  }
  std::sort(latencies.begin(), latencies.end());

  PointStats stats;
  stats.p50 = PercentileSeconds(latencies, 0.50);
  stats.p99 = PercentileSeconds(latencies, 0.99);
  const double span = ToSeconds(now);
  stats.qps = span > 0 ? static_cast<double>(kQueries) / span : 0;
  stats.redispatches =
      fleet.metrics().counter("fleet.redispatches")->value();
  stats.fallbacks =
      fleet.metrics().counter("fleet.subquery_fallbacks")->value();
  stats.trips = fleet.TotalBreakerTrips();
  return stats;
}

// The scale-out table: one cold Q6 per fleet, projected to SF 100.
void PrintScaleOut(const exec::QuerySpec& spec) {
  constexpr double kScaleUp = 100.0 / kScaleFactor;
  engine::Database ssd_db(engine::DatabaseOptions::PaperSsd());
  bench::Unwrap(tpch::LoadLineitem(ssd_db, "lineitem", kScaleFactor,
                                   storage::PageLayout::kNsm),
                "load (SSD)");
  ssd_db.ResetForColdRun();
  engine::QueryExecutor ssd_executor(&ssd_db);
  const double host_seconds =
      bench::Unwrap(ssd_executor.Execute(spec, engine::ExecutionTarget::kHost),
                    "host Q6")
          .stats.elapsed_seconds();
  std::printf("\nScale-out: one cold Q6 per fleet (the Section 4.3 "
              "appliance)\n");
  std::printf("baseline: 1x SAS SSD, host execution: %.1f s (SF100)\n\n",
              host_seconds * kScaleUp);
  std::printf("%-10s %14s %16s %14s\n", "devices", "Q6 (SF100 s)",
              "vs 1 smart SSD", "vs host SSD");
  bench::PrintRule();
  double one_device_seconds = 0;
  for (const int devices : {1, 2, 4, 8}) {
    engine::Fleet fleet(devices, engine::DatabaseOptions::PaperSmartSsd());
    bench::Check(tpch::LoadLineitemFleet(fleet, "lineitem", kScaleFactor,
                                         storage::PageLayout::kPax),
                 "partitioned load");
    fleet.ResetForColdRun();
    const double seconds =
        bench::Unwrap(engine::ExecuteOnFleet(
                          fleet, spec, engine::ExecutionTarget::kSmartSsd),
                      "fleet Q6")
            .elapsed_seconds();
    if (devices == 1) one_device_seconds = seconds;
    std::printf("%-10d %13.1f %15.2fx %13.2fx\n", devices,
                seconds * kScaleUp, one_device_seconds / seconds,
                host_seconds / seconds);
  }
  bench::PrintRule();
  std::printf(
      "Shape check: near-linear scaling with devices; 8 Smart SSDs beat "
      "the single-SSD host by >10x, realizing the appliance vision.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Fleet sweep: closed-loop Q6 across 1..8 Smart SSDs, with and "
      "without a failing device",
      "the Section 4.3 scale-out vision under the robustness ladder");
  bench::JsonReporter reporter("fleet_workload", argc, argv);

  // Single-device reference result: the bytes every fleet shape (and
  // the faulted run) must reproduce.
  const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
  std::vector<std::int64_t> reference;
  {
    engine::Database db(engine::DatabaseOptions::PaperSmartSsd());
    bench::Unwrap(tpch::LoadLineitem(db, "lineitem", kScaleFactor,
                                     storage::PageLayout::kPax),
                  "reference load");
    db.ResetForColdRun();
    engine::QueryExecutor executor(&db);
    reference = bench::Unwrap(
                    executor.Execute(spec, engine::ExecutionTarget::kSmartSsd),
                    "reference Q6")
                    .agg_values;
  }

  std::printf("%-14s | %8s %8s %8s %8s | %6s %6s %6s\n", "fleet", "p50 s",
              "p99 s", "qps", "vs 1dev", "redisp", "fallbk", "trips");
  bench::PrintRule();

  double one_device_qps = 0;
  struct Config {
    int devices;
    bool faulted;
  };
  const Config kConfigs[] = {
      {1, false}, {2, false}, {4, false}, {8, false}, {4, true}};
  double healthy4_p99 = 0;
  for (const Config& cfg : kConfigs) {
    const PointStats stats =
        RunPoint(cfg.devices, cfg.faulted, spec, reference);
    if (cfg.devices == 1 && !cfg.faulted) one_device_qps = stats.qps;
    if (cfg.devices == 4 && !cfg.faulted) healthy4_p99 = stats.p99;
    const double speedup =
        one_device_qps > 0 ? stats.qps / one_device_qps : 1.0;
    char name[32];
    std::snprintf(name, sizeof name, "fleet%d%s", cfg.devices,
                  cfg.faulted ? "-faulted" : "");
    std::printf("%-14s | %8.4f %8.4f %8.1f %7.2fx | %6llu %6llu %6llu\n",
                name, stats.p50, stats.p99, stats.qps, speedup,
                static_cast<unsigned long long>(stats.redispatches),
                static_cast<unsigned long long>(stats.fallbacks),
                static_cast<unsigned long long>(stats.trips));
    if (cfg.faulted && healthy4_p99 > 0) {
      std::printf("%-14s   p99 inflation vs healthy 4-device fleet: "
                  "%.2fx\n",
                  "", stats.p99 / healthy4_p99);
    }
    reporter.AddWithCounters(
        name, stats.p99, NAN, speedup,
        {{"qps", stats.qps},
         {"redispatches", static_cast<double>(stats.redispatches)},
         {"fallbacks", static_cast<double>(stats.fallbacks)},
         {"breaker_trips", static_cast<double>(stats.trips)}});
  }
  bench::PrintRule();
  std::printf(
      "Shape check: healthy fleets scale near-linearly (>=3x QPS at 4 "
      "devices); the faulted fleet completes every query byte-identically "
      "via fallback then re-dispatch, trading p99 inflation for "
      "availability.\n");
  PrintScaleOut(spec);
  reporter.Write();
  return 0;
}
