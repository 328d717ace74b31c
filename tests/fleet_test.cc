// Tests for the fault-tolerant multi-device fleet (engine/fleet.h):
// partitioned scatter-gather byte-identity against single-device ground
// truth (aggregates, GROUP BY, global top-N, a join against a
// replicated inner, TPC-H scale-out), per-device fault-seed purity,
// breaker-open re-dispatch, the half-open probe closing the breaker,
// deterministic replay with a straggling device, and strict failure
// when a partition is unavailable on every path or finds every session
// grant held.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "check/invariants.h"
#include "check/result_compare.h"
#include "check/table_gen.h"
#include "common/units.h"
#include "engine/executor.h"
#include "engine/fleet.h"
#include "expr/expression.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace smartssd::engine {
namespace {

using check::CompareOutputs;
using check::ExecutionOutput;
using check::TableGenConfig;

// --- Shared query shapes over the check tables ---------------------------

// SUM/COUNT over a ~50% selection of F: exercises the scalar-aggregate
// merge and keeps every device's partition contributing.
exec::QuerySpec SumSpec() {
  exec::QuerySpec spec;
  spec.name = "fleet_sum";
  spec.table = check::kOuterTable;
  spec.predicate =
      expr::Lt(expr::Col(3), expr::Lit(check::kValueDomain / 2));
  spec.aggregates.push_back(exec::AggSpec{
      .fn = exec::AggSpec::Fn::kSum, .input = expr::Col(4), .name = "s"});
  spec.aggregates.push_back(exec::AggSpec{
      .fn = exec::AggSpec::Fn::kCount, .input = nullptr, .name = "c"});
  return spec;
}

// GROUP BY cat: exercises the keyed merge (groups span partitions).
exec::QuerySpec GroupSpec() {
  exec::QuerySpec spec;
  spec.name = "fleet_group";
  spec.table = check::kOuterTable;
  spec.group_by = {2};
  spec.aggregates.push_back(exec::AggSpec{
      .fn = exec::AggSpec::Fn::kSum, .input = expr::Col(6), .name = "s"});
  return spec;
}

// Top 50 by v64 over ~30% of F: winners come from every partition, so
// the coordinator's re-selection of the global top k does real work.
exec::QuerySpec TopNSpec() {
  exec::QuerySpec spec;
  spec.name = "fleet_topn";
  spec.table = check::kOuterTable;
  spec.predicate =
      expr::Lt(expr::Col(3), expr::Lit(check::kValueDomain * 3 / 10));
  spec.projection = {4, 0, 2};
  spec.top_n =
      exec::TopNSpec{.order_col = 4, .descending = true, .limit = 50};
  return spec;
}

ExecutionOutput GroundTruth(const exec::QuerySpec& spec,
                            ExecutionTarget target,
                            const TableGenConfig& config) {
  Database db(DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTables(db, config, storage::PageLayout::kNsm).ok());
  db.ResetForColdRun();
  QueryExecutor executor(&db);
  auto result = executor.Execute(spec, target);
  SMARTSSD_CHECK(result.ok());
  return check::FromQuery("single", *result);
}

ExecutionOutput FleetRun(Fleet& fleet, const exec::QuerySpec& spec,
                         ExecutionTarget target) {
  fleet.ResetForColdRun();
  auto result = ExecuteOnFleet(fleet, spec, target);
  SMARTSSD_CHECK(result.ok());
  return check::FromFleet("fleet", *result);
}

// --- Satellite: per-device fault seeds ------------------------------------

TEST(DeviceFaultSeedTest, PureAndDistinct) {
  // Pure: same inputs, same seed — no hidden state.
  EXPECT_EQ(DeviceFaultSeed(7, 3), DeviceFaultSeed(7, 3));
  // Distinct across devices of one fleet and across fleet seeds.
  std::set<std::uint64_t> seeds;
  for (int d = 0; d < 16; ++d) seeds.insert(DeviceFaultSeed(7, d));
  for (int d = 0; d < 16; ++d) seeds.insert(DeviceFaultSeed(8, d));
  EXPECT_EQ(seeds.size(), 32u);
}

TEST(DeviceFaultSeedTest, LoadFaultScheduleUsesDerivedSeed) {
  Fleet fleet(2, DatabaseOptions::PaperSmartSsd(), /*fleet_seed=*/42);
  EXPECT_EQ(fleet.device_fault_seed(0), DeviceFaultSeed(42, 0));
  EXPECT_NE(fleet.device_fault_seed(0), fleet.device_fault_seed(1));
}

// --- Scatter-gather byte-identity -----------------------------------------

class FleetTest : public ::testing::Test {
 protected:
  TableGenConfig gen_;
};

TEST_F(FleetTest, UniformFleetMatchesSingleDeviceByteForByte) {
  Fleet fleet(3, DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kNsm).ok());
  std::vector<exec::QuerySpec> specs;
  specs.push_back(SumSpec());
  specs.push_back(GroupSpec());
  for (const exec::QuerySpec& spec : specs) {
    for (ExecutionTarget target :
         {ExecutionTarget::kSmartSsd, ExecutionTarget::kHost}) {
      const ExecutionOutput expected = GroundTruth(spec, target, gen_);
      const ExecutionOutput actual = FleetRun(fleet, spec, target);
      const Status s = CompareOutputs(expected, actual);
      EXPECT_TRUE(s.ok()) << spec.name << ": " << s.message();
    }
  }
}

TEST_F(FleetTest, HeterogeneousFleetMatchesSingleDevice) {
  DatabaseOptions base = DatabaseOptions::PaperSmartSsd();
  DatabaseOptions slow = base;
  slow.ssd.embedded_cpu.cores = 2;
  slow.ssd.embedded_cpu.clock_hz = 300ull * 1000 * 1000;
  Fleet fleet({base, slow, base});
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kPax).ok());
  const exec::QuerySpec spec = SumSpec();
  const ExecutionOutput expected =
      GroundTruth(spec, ExecutionTarget::kSmartSsd, gen_);
  const ExecutionOutput actual =
      FleetRun(fleet, spec, ExecutionTarget::kSmartSsd);
  const Status s = CompareOutputs(expected, actual);
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST_F(FleetTest, RejectsQueryOverReplicatedTable) {
  Fleet fleet(2, DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kNsm).ok());
  exec::QuerySpec spec = SumSpec();
  spec.table = check::kInnerTable;  // replicated, not partitioned
  auto result =
      ExecuteOnFleet(fleet, spec, ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(std::string(result.status().message())
                .find("not partition-loaded"),
            std::string::npos);
}

TEST_F(FleetTest, GlobalTopNMatchesSingleDevice) {
  Fleet fleet(3, DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kPax).ok());
  const exec::QuerySpec spec = TopNSpec();
  const ExecutionOutput expected =
      GroundTruth(spec, ExecutionTarget::kSmartSsd, gen_);
  EXPECT_EQ(expected.row_count(), 50u);
  const ExecutionOutput actual =
      FleetRun(fleet, spec, ExecutionTarget::kSmartSsd);
  const Status s = CompareOutputs(expected, actual);
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST_F(FleetTest, RejectsTopNWithoutProjectedOrderColumn) {
  Fleet fleet(2, DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kNsm).ok());
  exec::QuerySpec spec = TopNSpec();
  spec.projection = {0, 2};  // order column 4 NOT projected
  auto result = ExecuteOnFleet(fleet, spec, ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- TPC-H over a partitioned LINEITEM -----------------------------------

constexpr double kTpchSf = 0.004;  // 24k LINEITEM rows in total

// LINEITEM partitioned across a 4-device fleet with PART replicated on
// every device, next to a single-device reference holding both whole.
class FleetTpchTest : public ::testing::Test {
 protected:
  FleetTpchTest()
      : fleet_(4, DatabaseOptions::PaperSmartSsd()),
        single_(DatabaseOptions::PaperSmartSsd()) {
    SMARTSSD_CHECK(tpch::LoadLineitem(single_, "lineitem", kTpchSf,
                                      storage::PageLayout::kPax)
                       .ok());
    SMARTSSD_CHECK(
        tpch::LoadPart(single_, "part", kTpchSf, storage::PageLayout::kPax)
            .ok());
    SMARTSSD_CHECK(tpch::LoadLineitemFleet(fleet_, "lineitem", kTpchSf,
                                           storage::PageLayout::kPax)
                       .ok());
    for (int d = 0; d < fleet_.devices(); ++d) {
      SMARTSSD_CHECK(tpch::LoadPart(fleet_.device(d), "part", kTpchSf,
                                    storage::PageLayout::kPax)
                         .ok());
    }
  }

  QueryResult RunSingle(const exec::QuerySpec& spec) {
    single_.ResetForColdRun();
    QueryExecutor executor(&single_);
    auto result = executor.Execute(spec, ExecutionTarget::kSmartSsd);
    SMARTSSD_CHECK(result.ok());
    return std::move(result).value();
  }

  FleetQueryResult RunOnFleet(const exec::QuerySpec& spec) {
    fleet_.ResetForColdRun();
    auto result = ExecuteOnFleet(fleet_, spec, ExecutionTarget::kSmartSsd);
    SMARTSSD_CHECK(result.ok());
    return std::move(result).value();
  }

  Fleet fleet_;
  Database single_;
};

TEST_F(FleetTpchTest, JoinWithReplicatedInnerMergesExactly) {
  const exec::QuerySpec spec = tpch::Q14Spec("lineitem", "part");
  EXPECT_EQ(RunOnFleet(spec).agg_values, RunSingle(spec).agg_values);
}

TEST_F(FleetTpchTest, FourDevicesAreNearlyFourTimesFaster) {
  const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
  const double scaling = RunSingle(spec).stats.elapsed_seconds() /
                         RunOnFleet(spec).elapsed_seconds();
  EXPECT_GT(scaling, 3.0);
  EXPECT_LT(scaling, 4.5);
}

TEST_F(FleetTpchTest, PartitionStatsCoverEveryRow) {
  const FleetQueryResult result = RunOnFleet(tpch::Q6Spec("lineitem"));
  ASSERT_EQ(result.partition_stats.size(), 4u);
  std::uint64_t tuples = 0;
  for (const QueryStats& stats : result.partition_stats) {
    tuples += stats.counts.tuples;
  }
  EXPECT_EQ(tuples, tpch::LineitemRows(kTpchSf));
}

// --- Breaker-open re-dispatch ---------------------------------------------

TEST_F(FleetTest, BreakerOpenRedispatchIsByteIdentical) {
  Fleet fleet(3, DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kNsm).ok());
  const exec::QuerySpec spec = SumSpec();
  const ExecutionOutput healthy =
      FleetRun(fleet, spec, ExecutionTarget::kSmartSsd);

  // Trip device 1's breaker; a query arriving inside the cooldown must
  // send that partition straight to the host path — same bytes.
  fleet.ResetForColdRun();
  DeviceCircuitBreaker& breaker = fleet.device(1).circuit_breaker();
  breaker.Reset();
  for (std::uint32_t i = 0; i < breaker.config().failure_threshold; ++i) {
    breaker.RecordFailure(0, "test");
  }
  ASSERT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);
  fleet.UpdateBreakerGauges();
  EXPECT_EQ(fleet.metrics().gauge("fleet.dev1.breaker_state")->value(), 1);

  auto result = ExecuteOnFleet(fleet, spec, ExecutionTarget::kSmartSsd);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // Partition 1 ran on the host path without a device attempt, so there
  // was nothing to fall back from; the other partitions stayed on their
  // devices.
  ASSERT_EQ(result->partition_stats.size(), 3u);
  EXPECT_EQ(result->partition_stats[1].target, ExecutionTarget::kHost);
  EXPECT_FALSE(result->partition_stats[1].fell_back);
  EXPECT_EQ(result->partition_stats[0].target, ExecutionTarget::kSmartSsd);
  EXPECT_EQ(result->partition_stats[2].target, ExecutionTarget::kSmartSsd);
  EXPECT_EQ(fleet.metrics().counter("fleet.redispatches")->value(), 1u);
  EXPECT_EQ(fleet.metrics().counter("fleet.breaker_probes")->value(), 0u);

  const ExecutionOutput redispatched =
      check::FromFleet("fleet-redispatch", result.value());
  const Status s = CompareOutputs(healthy, redispatched);
  EXPECT_TRUE(s.ok()) << s.message();
  // Gauges refreshed on completion: still open (nobody probed it).
  EXPECT_EQ(fleet.metrics().gauge("fleet.dev1.breaker_state")->value(), 1);
  breaker.Reset();
}

TEST_F(FleetTest, HalfOpenProbeClosesBreakerForLaterQueries) {
  Fleet fleet(2, DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kNsm).ok());
  const exec::QuerySpec spec = SumSpec();
  const ExecutionOutput healthy =
      GroundTruth(spec, ExecutionTarget::kSmartSsd, gen_);

  DeviceCircuitBreaker& breaker = fleet.device(0).circuit_breaker();
  for (std::uint32_t i = 0; i < breaker.config().failure_threshold; ++i) {
    breaker.RecordFailure(0, "test");
  }
  ASSERT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);

  // Three queries back to back, the first just past the cooldown: its
  // device-0 partition is the half-open probe, and its success closes
  // the breaker, so the later queries run device 0 as usual.
  SimTime at = breaker.config().cooldown + 100 * kMillisecond;
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    auto result = ExecuteOnFleet(fleet, spec, ExecutionTarget::kSmartSsd, at);
    ASSERT_TRUE(result.ok()) << result.status().message();
    const Status s =
        CompareOutputs(healthy, check::FromFleet("fleet-probe", *result));
    EXPECT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(result->partition_stats[0].target, ExecutionTarget::kSmartSsd);
    EXPECT_FALSE(result->partition_stats[0].fell_back);
    EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kClosed);
    at = result->end;
  }
  EXPECT_EQ(fleet.metrics().counter("fleet.breaker_probes")->value(), 1u);
  EXPECT_EQ(fleet.metrics().counter("fleet.redispatches")->value(), 0u);
}

// --- Replay with a straggling device --------------------------------------

// A 4-device fleet where device 3's embedded CPU is 10x slower, so its
// device-path subqueries finish last and every merge waits on them.
// Runs 4 queries back to back; everything replay determinism must
// preserve lands in the results.
std::vector<FleetQueryResult> RunStragglerWorkload(
    const exec::QuerySpec& spec, const TableGenConfig& gen) {
  DatabaseOptions base = DatabaseOptions::PaperSmartSsd();
  DatabaseOptions straggler = base;
  straggler.ssd.embedded_cpu.clock_hz = 40ull * 1000 * 1000;
  Fleet fleet({base, base, base, straggler});
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen, storage::PageLayout::kNsm).ok());
  obs::Tracer tracer;
  fleet.AttachTracer(&tracer);

  std::vector<FleetQueryResult> results;
  SimTime at = 0;
  for (int i = 0; i < 4; ++i) {
    auto result = ExecuteOnFleet(fleet, spec, ExecutionTarget::kSmartSsd, at);
    SMARTSSD_CHECK(result.ok());
    at = result->end;
    results.push_back(std::move(result).value());
  }

  // Every grant returned, every span closed.
  SMARTSSD_CHECK(check::CheckFleetInvariants(fleet).ok());
  SMARTSSD_CHECK(check::CheckTraceInvariants(tracer).ok());
  return results;
}

TEST_F(FleetTest, StragglerFleetIsDeterministicOnReplay) {
  const exec::QuerySpec spec = SumSpec();
  const ExecutionOutput expected =
      GroundTruth(spec, ExecutionTarget::kSmartSsd, gen_);
  const std::vector<FleetQueryResult> first =
      RunStragglerWorkload(spec, gen_);
  const std::vector<FleetQueryResult> second =
      RunStragglerWorkload(spec, gen_);
  ASSERT_EQ(first.size(), 4u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    const FleetQueryResult& a = first[i];
    const FleetQueryResult& b = second[i];
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    ASSERT_EQ(a.partition_stats.size(), 4u);
    ASSERT_EQ(a.partition_stats.size(), b.partition_stats.size());
    for (std::size_t d = 0; d < a.partition_stats.size(); ++d) {
      EXPECT_EQ(a.partition_stats[d].start, b.partition_stats[d].start);
      EXPECT_EQ(a.partition_stats[d].end, b.partition_stats[d].end);
      EXPECT_EQ(a.partition_stats[d].fell_back,
                b.partition_stats[d].fell_back);
      // The slow device is the one every merge waits on.
      EXPECT_LE(a.partition_stats[d].end, a.partition_stats[3].end);
    }
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.agg_values, b.agg_values);
    for (const FleetQueryResult* result : {&a, &b}) {
      const ExecutionOutput out =
          check::FromFleet("fleet-straggler", *result);
      const Status s = CompareOutputs(expected, out);
      EXPECT_TRUE(s.ok()) << s.message();
    }
  }
}

// Partitions run one after another on a shared tracer, but a span that
// dies on an error path ends on its own device's clock: device 1's
// failed pushdown attempt ends when its session failed, not at device
// 0's last event.
TEST_F(FleetTest, FailedAttemptSpanEndsWhenItsSessionFailed) {
  Fleet fleet(2, DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kNsm).ok());
  obs::Tracer tracer;
  fleet.AttachTracer(&tracer);
  sim::FaultSchedule schedule;
  schedule.faults.push_back(sim::FaultSpec{
      .kind = sim::FaultKind::kOpenRejected,
      .trigger = {.unit = sim::TriggerUnit::kSimTime, .at = 0},
      .count = 1});
  fleet.LoadFaultSchedule(1, std::move(schedule));
  const exec::QuerySpec spec = SumSpec();

  auto result = ExecuteOnFleet(fleet, spec, ExecutionTarget::kSmartSsd);
  fleet.ClearFaults();
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_TRUE(result->partition_stats[1].fell_back);

  const obs::TraceEvent* attempt = nullptr;
  SimTime session_failed = 0;
  for (const obs::TraceEvent& event : tracer.events()) {
    const obs::Track& track = tracer.tracks()[event.track];
    if (track.process != "fleet-host1") continue;
    if (event.phase == obs::TraceEvent::Phase::kInstant &&
        event.name == "session failed") {
      session_failed = event.start;
    }
    if (attempt == nullptr && event.phase == obs::TraceEvent::Phase::kSpan &&
        track.thread == "executor" && event.name == spec.name) {
      attempt = &event;  // the device attempt opens before the rerun
    }
  }
  ASSERT_NE(attempt, nullptr);
  ASSERT_GT(session_failed, 0u);
  EXPECT_EQ(attempt->end, session_failed);
  EXPECT_LT(attempt->end, result->partition_stats[0].end);
}

// --- Unavailable partitions -----------------------------------------------

// A fault schedule no path survives: every flash page read on the
// device fails, so the session dies and the host rerun (which reads the
// same flash) dies too.
sim::FaultSchedule KillEveryRead() {
  sim::FaultSchedule schedule;
  schedule.faults.push_back(sim::FaultSpec{
      .kind = sim::FaultKind::kUncorrectableRead,
      .trigger = {.unit = sim::TriggerUnit::kPagesRead, .at = 1},
      .count = 1'000'000});
  return schedule;
}

TEST_F(FleetTest, StrictPolicyFailsWhenPartitionIsUnavailable) {
  Fleet fleet(2, DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kNsm).ok());
  obs::Tracer tracer;
  fleet.AttachTracer(&tracer);
  const exec::QuerySpec spec = SumSpec();
  fleet.LoadFaultSchedule(1, KillEveryRead());

  auto result = ExecuteOnFleet(fleet, spec, ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_NE(std::string(result.status().message())
                .find("partition 1 unavailable"),
            std::string::npos);
  EXPECT_EQ(
      fleet.metrics().counter("fleet.unavailable_partitions")->value(), 1u);

  // Device 0 had finished before device 1 ran; every grant is back and
  // every span closed.
  const Status fleet_ok = check::CheckFleetInvariants(fleet);
  EXPECT_TRUE(fleet_ok.ok()) << fleet_ok.message();
  const Status trace_ok = check::CheckTraceInvariants(tracer);
  EXPECT_TRUE(trace_ok.ok()) << trace_ok.message();
  fleet.ClearFaults();
}

// A device whose every session grant is held fails its partition
// without a device attempt: the run-alone loop's RESOURCE_EXHAUSTED
// surfaces as the partition's ABORTED, and no breaker learns a failure.
TEST_F(FleetTest, HeldSessionGrantsFailThePartitionWithoutBreakerFailure) {
  Fleet fleet(2, DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen_, storage::PageLayout::kNsm).ok());
  ssd::SsdDevice& ssd = *fleet.device(1).ssd();
  int held = 0;
  while (ssd.AcquireSessionThread().ok()) ++held;
  ASSERT_GT(held, 0);

  auto result = ExecuteOnFleet(fleet, SumSpec(), ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_NE(std::string(result.status().message())
                .find("partition 1 unavailable"),
            std::string::npos);
  EXPECT_EQ(
      fleet.metrics().counter("fleet.unavailable_partitions")->value(), 1u);
  for (int d = 0; d < fleet.devices(); ++d) {
    EXPECT_EQ(fleet.device(d).circuit_breaker().total_failures(), 0u) << d;
  }

  for (int i = 0; i < held; ++i) ssd.ReleaseSessionThread();
  EXPECT_TRUE(
      ExecuteOnFleet(fleet, SumSpec(), ExecutionTarget::kSmartSsd).ok());
}

}  // namespace
}  // namespace smartssd::engine
