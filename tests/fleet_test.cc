// Tests for the fault-tolerant multi-device fleet (engine/fleet.h):
// partitioned scatter-gather byte-identity against single-device ground
// truth (aggregates, GROUP BY, global top-N, a join against a
// replicated inner, TPC-H scale-out), per-device fault-seed purity,
// breaker-open re-dispatch, half-open single-probe admission under
// concurrent traffic, deterministic replay with a straggling device,
// and strict failure (with cancellation) when a partition is
// unavailable on every path.

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

  FleetCoordinator coordinator(&fleet);
  FleetQueryConfig config;
  config.spec = &spec;
  coordinator.Submit(config, /*at=*/0);
  auto completed = coordinator.Run();
  ASSERT_TRUE(completed.ok());
  ASSERT_EQ(completed->size(), 1u);
  const CompletedFleetQuery& record = completed->front();
  ASSERT_TRUE(record.result.ok()) << record.result.status().message();
  EXPECT_TRUE(record.subqueries[1].redispatched);
  EXPECT_FALSE(record.subqueries[0].redispatched);
  EXPECT_FALSE(record.subqueries[2].redispatched);
  EXPECT_EQ(coordinator.redispatches(), 1u);
  EXPECT_EQ(coordinator.breaker_probes(), 0u);

  const ExecutionOutput redispatched =
      check::FromFleet("fleet-redispatch", record.result.value());
  const Status s = CompareOutputs(healthy, redispatched);
  EXPECT_TRUE(s.ok()) << s.message();
  // Gauges refreshed on completion: still open (nobody probed it).
  EXPECT_EQ(fleet.metrics().gauge("fleet.dev1.breaker_state")->value(), 1);
  breaker.Reset();
}

TEST_F(FleetTest, HalfOpenAdmitsExactlyOneProbeUnderConcurrentTraffic) {
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

  // Three fleet queries arrive together just past the cooldown: exactly
  // one device-0 subquery is admitted as the half-open probe; the other
  // two keep bypassing to the host path while the probe is in flight.
  FleetCoordinator coordinator(&fleet);
  const SimTime arrival = breaker.config().cooldown + 100 * kMillisecond;
  FleetQueryConfig config;
  config.spec = &spec;
  for (int i = 0; i < 3; ++i) coordinator.Submit(config, arrival);
  auto completed = coordinator.Run();
  ASSERT_TRUE(completed.ok());
  ASSERT_EQ(completed->size(), 3u);

  EXPECT_EQ(coordinator.breaker_probes(), 1u);
  EXPECT_EQ(coordinator.redispatches(), 2u);
  int probes = 0, redispatches = 0;
  for (const CompletedFleetQuery& record : *completed) {
    ASSERT_TRUE(record.result.ok()) << record.result.status().message();
    const ExecutionOutput out =
        check::FromFleet("fleet-probe", record.result.value());
    const Status s = CompareOutputs(healthy, out);
    EXPECT_TRUE(s.ok()) << s.message();
    if (record.subqueries[0].redispatched) {
      ++redispatches;
    } else {
      ++probes;
    }
  }
  EXPECT_EQ(probes, 1);
  EXPECT_EQ(redispatches, 2);
  // The healthy probe succeeded, closing the breaker for good.
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kClosed);
}

// --- Replay with a straggling device --------------------------------------

// A 4-device fleet where device 3's embedded CPU is 10x slower, so its
// device-path subqueries finish last and every merge waits on them.
// Runs a closed-loop client of 4 queries; everything replay
// determinism must preserve lands in the completion records.
std::vector<CompletedFleetQuery> RunStragglerWorkload(
    const exec::QuerySpec& spec, const TableGenConfig& gen) {
  DatabaseOptions base = DatabaseOptions::PaperSmartSsd();
  DatabaseOptions straggler = base;
  straggler.ssd.embedded_cpu.clock_hz = 40ull * 1000 * 1000;
  Fleet fleet({base, base, base, straggler});
  SMARTSSD_CHECK(
      check::LoadTablesFleet(fleet, gen, storage::PageLayout::kNsm).ok());
  obs::Tracer tracer;
  fleet.AttachTracer(&tracer);

  FleetCoordinator coordinator(&fleet);
  FleetQueryConfig config;
  config.spec = &spec;
  coordinator.AddClosedLoopClient(config, /*count=*/4);
  auto completed = coordinator.Run();
  SMARTSSD_CHECK(completed.ok());

  // Every grant returned, every span closed.
  SMARTSSD_CHECK(check::CheckFleetInvariants(fleet).ok());
  SMARTSSD_CHECK(check::CheckTraceInvariants(tracer).ok());
  return std::move(completed).value();
}

TEST_F(FleetTest, StragglerFleetIsDeterministicOnReplay) {
  const exec::QuerySpec spec = SumSpec();
  const ExecutionOutput expected =
      GroundTruth(spec, ExecutionTarget::kSmartSsd, gen_);
  const std::vector<CompletedFleetQuery> first =
      RunStragglerWorkload(spec, gen_);
  const std::vector<CompletedFleetQuery> second =
      RunStragglerWorkload(spec, gen_);
  ASSERT_EQ(first.size(), 4u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    const CompletedFleetQuery& a = first[i];
    const CompletedFleetQuery& b = second[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.end, b.end);
    ASSERT_EQ(a.subqueries.size(), 4u);
    ASSERT_EQ(a.subqueries.size(), b.subqueries.size());
    for (std::size_t d = 0; d < a.subqueries.size(); ++d) {
      EXPECT_EQ(a.subqueries[d].start, b.subqueries[d].start);
      EXPECT_EQ(a.subqueries[d].end, b.subqueries[d].end);
      EXPECT_EQ(a.subqueries[d].fell_back, b.subqueries[d].fell_back);
      // The slow device is the one every merge waits on.
      EXPECT_LE(a.subqueries[d].end, a.subqueries[3].end);
    }
    ASSERT_TRUE(a.result.ok()) << a.result.status().message();
    ASSERT_TRUE(b.result.ok()) << b.result.status().message();
    EXPECT_EQ(a.result.value().rows, b.result.value().rows);
    EXPECT_EQ(a.result.value().agg_values, b.result.value().agg_values);
    EXPECT_EQ(a.result.value().end, b.result.value().end);
    for (const CompletedFleetQuery* record : {&a, &b}) {
      const ExecutionOutput out =
          check::FromFleet("fleet-straggler", record->result.value());
      const Status s = CompareOutputs(expected, out);
      EXPECT_TRUE(s.ok()) << s.message();
    }
  }
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

  FleetCoordinator coordinator(&fleet);
  FleetQueryConfig config;
  config.spec = &spec;
  coordinator.Submit(config, 0);
  auto completed = coordinator.Run();
  ASSERT_TRUE(completed.ok());
  ASSERT_EQ(completed->size(), 1u);
  const CompletedFleetQuery& record = completed->front();
  ASSERT_FALSE(record.result.ok());
  EXPECT_EQ(record.result.status().code(), StatusCode::kAborted);
  EXPECT_NE(std::string(record.result.status().message())
                .find("partition 1 unavailable"),
            std::string::npos);
  EXPECT_TRUE(record.subqueries[1].unavailable);
  EXPECT_EQ(coordinator.unavailable_partitions(), 1u);

  // Partition 0's session was still running when partition 1 failed:
  // cancelling the query destroyed it mid-flight, and it handed its
  // grants back and closed its spans.
  EXPECT_GE(fleet.device(0).runtime()->sessions_abandoned(), 1u);
  const Status fleet_ok = check::CheckFleetInvariants(fleet);
  EXPECT_TRUE(fleet_ok.ok()) << fleet_ok.message();
  const Status trace_ok = check::CheckTraceInvariants(tracer);
  EXPECT_TRUE(trace_ok.ok()) << trace_ok.message();
  fleet.ClearFaults();
}

}  // namespace
}  // namespace smartssd::engine
