// Observability subsystem: tracer span bookkeeping and scope
// attribution, histogram percentile math, registry determinism, and the
// end-to-end properties the subsystem promises — byte-identical Chrome
// trace exports across identical runs, nanosecond-identical query
// timings with tracing on or off, and a balanced span stack even when a
// pushdown session dies mid-flight and the engine falls back to the
// host path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/rate_server.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace smartssd {
namespace {

using obs::Arg;
using obs::Tracer;
using obs::TraceEvent;
using obs::TrackId;

// --- Tracer unit tests ------------------------------------------------

TEST(TracerTest, RegisterTrackIsIdempotentAndOrdersByFirstUse) {
  Tracer tracer;
  const TrackId a = tracer.RegisterTrack("device", "chan 0");
  const TrackId b = tracer.RegisterTrack("device", "chan 1");
  const TrackId c = tracer.RegisterTrack("host", "executor");
  EXPECT_EQ(tracer.RegisterTrack("device", "chan 0"), a);
  EXPECT_EQ(tracer.RegisterTrack("host", "executor"), c);
  ASSERT_EQ(tracer.tracks().size(), 3u);
  // Same process => same pid, lanes numbered in registration order.
  EXPECT_EQ(tracer.tracks()[a].pid, tracer.tracks()[b].pid);
  EXPECT_NE(tracer.tracks()[a].pid, tracer.tracks()[c].pid);
  EXPECT_EQ(tracer.tracks()[a].tid, 0u);
  EXPECT_EQ(tracer.tracks()[b].tid, 1u);
  EXPECT_EQ(tracer.tracks()[c].tid, 0u);
}

TEST(TracerTest, ScopeStackAttributesParents) {
  Tracer tracer;
  const TrackId t = tracer.RegisterTrack("p", "lane");
  const obs::SpanId outer =
      tracer.Complete(t, "outer", "test", 0, 100);
  tracer.PushScope(outer);
  const obs::SpanId inner = tracer.Complete(t, "inner", "test", 10, 50);
  tracer.Instant(t, "tick", "test", 20);
  tracer.PopScope();
  tracer.Instant(t, "after", "test", 200);

  ASSERT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.events()[0].parent, obs::kNoSpan);
  EXPECT_EQ(tracer.events()[1].parent, outer);
  EXPECT_EQ(tracer.events()[1].id, inner);
  EXPECT_EQ(tracer.events()[2].parent, outer);
  EXPECT_EQ(tracer.events()[3].parent, obs::kNoSpan);
  EXPECT_EQ(tracer.latest_time("p"), 200u);
}

TEST(TracerTest, BeginEndBalancesAndTrackBusySums) {
  Tracer tracer;
  const TrackId t = tracer.RegisterTrack("p", "lane");
  const obs::SpanId s = tracer.Begin(t, "work", "test", 100);
  EXPECT_EQ(tracer.open_spans(), 1u);
  tracer.End(s, 300, {Arg::Uint("rows", 7)});
  EXPECT_EQ(tracer.open_spans(), 0u);
  tracer.Complete(t, "more", "test", 400, 450);
  EXPECT_EQ(tracer.TrackBusy(t), 250u);
}

TEST(TracerTest, RateServerSpansMatchBusyTime) {
  Tracer tracer;
  sim::RateServer server("bus");
  server.AttachTracer(&tracer, "device");
  server.Serve(0, 100, "xfer");
  server.Serve(50, 200, "xfer");   // queues behind the first
  server.Serve(1000, 25);          // label defaults to the server name
  EXPECT_EQ(tracer.TrackBusy(server.track()), server.busy_time());
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[2].name, "bus");
}

// --- Histogram / registry ---------------------------------------------

TEST(HistogramTest, SingleValueIsExactAtEveryPercentile) {
  obs::Histogram h("h");
  h.Record(42'000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42'000u);
  EXPECT_EQ(h.max(), 42'000u);
  EXPECT_DOUBLE_EQ(h.p50(), 42'000.0);
  EXPECT_DOUBLE_EQ(h.p99(), 42'000.0);
}

TEST(HistogramTest, PercentilesAreOrderedAndBucketBounded) {
  obs::Histogram h("h");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Log buckets: the p-th percentile must land in the bucket holding
  // the rank-p value, i.e. within 2x of the exact answer.
  const double p50 = h.p50();
  EXPECT_GE(p50, 256.0);  // exact answer 500 lives in [256, 512)
  EXPECT_LT(p50, 512.0);
  EXPECT_LE(p50, h.p95());
  EXPECT_LE(h.p95(), h.p99());
  EXPECT_LE(h.p99(), 1000.0);  // clamped to the recorded max

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, ZeroValuesLandInBucketZero) {
  obs::Histogram h("h");
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(MetricsRegistryTest, LookupIsRegistrationWithStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter("flash.reads");
  c->Add(3);
  EXPECT_EQ(registry.counter("flash.reads"), c);
  EXPECT_EQ(registry.counter("flash.reads")->value(), 3u);
  registry.gauge("pool.pages")->Set(-5);
  registry.histogram("lat")->Record(8);
  EXPECT_EQ(registry.size(), 3u);

  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(registry.histogram("lat")->count(), 0u);
}

// The read side never registers: a reader (the benchmark harness reads
// counters and histogram snapshots after a run) can probe instruments by
// name without minting empty ones.
TEST(MetricsRegistryTest, ReadSideLookupsNeverRegister) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("nope"), nullptr);
  EXPECT_EQ(registry.FindHistogram("nope"), nullptr);
  EXPECT_EQ(registry.CounterValue("nope"), 0u);
  const obs::HistogramSnapshot absent = registry.SnapshotHistogram("nope");
  EXPECT_EQ(absent.count, 0u);
  EXPECT_EQ(absent.p95, 0.0);
  EXPECT_EQ(registry.size(), 0u);

  registry.counter("hits")->Add(4);
  registry.gauge("depth")->Set(9);
  EXPECT_EQ(registry.CounterValue("hits"), 4u);
  EXPECT_EQ(registry.FindCounter("hits"), registry.counter("hits"));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, HistogramSnapshotMatchesInstrument) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("wait");
  // An existing-but-empty histogram also reads as the zero snapshot.
  EXPECT_EQ(registry.SnapshotHistogram("wait").count, 0u);
  for (int v : {10, 20, 30, 40, 1000}) h->Record(v);

  const obs::HistogramSnapshot snap = registry.SnapshotHistogram("wait");
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1100u);
  EXPECT_EQ(snap.min, 10u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.p50, h->p50());
  EXPECT_EQ(snap.p95, h->p95());
  EXPECT_EQ(snap.p99, h->p99());
  // Percentiles come back ordered, as the instrument promises.
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
}

// --- End-to-end properties over a real Q6 run -------------------------

constexpr double kSf = 0.002;  // 12k LINEITEM rows

// Loads LINEITEM (PAX) onto a paper-configured Smart SSD database,
// optionally wiring `tracer` through every layer, and runs Q6 cold.
Result<engine::QueryResult> RunTracedQ6(Tracer* tracer,
                                        engine::ExecutionTarget target,
                                        const sim::FaultSchedule* faults) {
  engine::Database db(engine::DatabaseOptions::PaperSmartSsd());
  auto loaded =
      tpch::LoadLineitem(db, "lineitem", kSf, storage::PageLayout::kPax);
  if (!loaded.ok()) return loaded.status();
  db.AttachTracer(tracer);
  db.ResetForColdRun();
  if (faults != nullptr) db.ssd()->fault_injector().Load(*faults);
  engine::QueryExecutor executor(&db);
  return executor.Execute(tpch::Q6Spec("lineitem"), target);
}

TEST(TraceExportTest, IdenticalRunsExportByteIdenticalTraces) {
  std::string exports[2];
  for (std::string& out : exports) {
    Tracer tracer;
    auto result = RunTracedQ6(&tracer, engine::ExecutionTarget::kSmartSsd,
                              nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(tracer.open_spans(), 0u);
    out = obs::ExportChromeTrace(tracer);
  }
  EXPECT_FALSE(exports[0].empty());
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(TraceExportTest, ExportsTheExpectedTracks) {
  Tracer tracer;
  auto result = RunTracedQ6(&tracer, engine::ExecutionTarget::kSmartSsd,
                            nullptr);
  ASSERT_TRUE(result.ok());
  const std::string json = obs::ExportChromeTrace(tracer);
  for (const char* lane :
       {"flash chan 0", "dram bus", "embedded core", "host link",
        "session", "executor"}) {
    EXPECT_NE(json.find(lane), std::string::npos) << lane;
  }
  // Valid Chrome trace envelope.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
}

TEST(TraceExportTest, DisabledTracingIsTimingInvisible) {
  auto traced_result = [] {
    Tracer tracer;
    return RunTracedQ6(&tracer, engine::ExecutionTarget::kSmartSsd,
                       nullptr);
  }();
  auto untraced_result =
      RunTracedQ6(nullptr, engine::ExecutionTarget::kSmartSsd, nullptr);
  ASSERT_TRUE(traced_result.ok());
  ASSERT_TRUE(untraced_result.ok());
  // Tracing never reads or advances the virtual clock, so the timings
  // agree to the nanosecond.
  EXPECT_EQ(traced_result->stats.start, untraced_result->stats.start);
  EXPECT_EQ(traced_result->stats.end, untraced_result->stats.end);
  EXPECT_EQ(traced_result->agg_values, untraced_result->agg_values);
}

TEST(TraceExportTest, HostFallbackLeavesBalancedSpans) {
  sim::FaultSchedule schedule;
  schedule.faults.push_back(
      sim::FaultSpec{sim::FaultKind::kDeviceReset,
                     {sim::TriggerUnit::kPagesRead, 10},
                     1});
  Tracer tracer;
  auto result = RunTracedQ6(&tracer, engine::ExecutionTarget::kSmartSsd,
                            &schedule);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.fell_back);
  // The failed device attempt and the host retry both closed their
  // spans; nothing leaked open and the export is well-formed.
  EXPECT_EQ(tracer.open_spans(), 0u);
  const std::string json = obs::ExportChromeTrace(tracer);
  EXPECT_NE(json.find("session failed"), std::string::npos);
  EXPECT_NE(json.find("fallback to host"), std::string::npos);
}

}  // namespace
}  // namespace smartssd
