// The adaptive placement policy and split-scan execution. The split
// identity tests pin the core contract: a scan fragmented across host
// and device must reproduce the monolithic run's rows, aggregates, AND
// OpCounts byte-for-byte, on both layouts. The determinism test pins
// the router under load: a fixed arrival trace yields byte-identical
// routing decisions and results run-to-run. The breaker tests pin
// device exclusion: an open breaker keeps the device out up front, with
// zero device attempts, and a query overflowing to the host does not
// spend the half-open probe.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/placement.h"
#include "engine/query_task.h"
#include "engine/workload.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

namespace smartssd {
namespace {

using engine::Database;
using engine::DatabaseOptions;
using engine::ExecutionTarget;
using engine::PlacementPolicyKind;
using engine::QueryExecutor;
using engine::QueryResult;
using engine::WorkloadQueryConfig;
using engine::WorkloadScheduler;

constexpr double kSf = 0.005;  // ~30k LINEITEM rows: fast but multi-page

void Load(Database& db, storage::PageLayout layout) {
  SMARTSSD_CHECK(tpch::LoadLineitem(db, "lineitem", kSf, layout).ok());
  SMARTSSD_CHECK(
      tpch::LoadSyntheticS(db, "S", 8, 20'000, 1'000, layout).ok());
  db.ResetForColdRun();
}

QueryResult RunPinned(Database& db, const exec::QuerySpec& spec,
                ExecutionTarget target) {
  db.ResetForColdRun();
  QueryExecutor executor(&db);
  auto result = executor.Execute(spec, target, 0);
  SMARTSSD_CHECK(result.ok());
  return std::move(result).value();
}

QueryResult RunAuto(Database& db, const exec::QuerySpec& spec,
                    PlacementPolicyKind policy) {
  db.ResetForColdRun();
  db.set_placement(policy);
  QueryExecutor executor(&db);
  auto result = executor.ExecuteAuto(spec);
  SMARTSSD_CHECK(result.ok());
  return std::move(result).value();
}

void ExpectIdentical(const QueryResult& expected, const QueryResult& got,
                     const std::string& what) {
  EXPECT_EQ(expected.rows, got.rows) << what << ": rows diverged";
  EXPECT_EQ(expected.agg_values, got.agg_values)
      << what << ": aggregates diverged";
  EXPECT_TRUE(expected.stats.counts == got.stats.counts)
      << what << ": OpCounts diverged (pages " << expected.stats.counts.pages
      << " vs " << got.stats.counts.pages << ", tuples "
      << expected.stats.counts.tuples << " vs " << got.stats.counts.tuples
      << ", output_tuples " << expected.stats.counts.output_tuples << " vs "
      << got.stats.counts.output_tuples << ")";
}

// Scan shapes that are split-eligible: scalar aggregate, GROUP BY, and
// plain projection (no join, no top-N).
std::vector<exec::QuerySpec> SplittableSpecs() {
  std::vector<exec::QuerySpec> specs;
  specs.push_back(tpch::Q6Spec("lineitem"));
  specs.push_back(tpch::Q1Spec("lineitem"));
  specs.push_back(tpch::ScanQuerySpec("S", 8, 0.10,
                                      /*aggregate=*/false,
                                      /*projected_columns=*/2));
  return specs;
}

class SplitIdentityTest
    : public ::testing::TestWithParam<storage::PageLayout> {};

// The tentpole contract: a split scan's merged result — rows,
// aggregates, and total OpCounts — equals both monolithic paths, on
// both layouts, across the split-eligible query shapes.
TEST_P(SplitIdentityTest, SplitMatchesMonolithicHostAndDevice) {
  Database db(DatabaseOptions::PaperSmartSsd());
  Load(db, GetParam());
  for (const exec::QuerySpec& spec : SplittableSpecs()) {
    const QueryResult host = RunPinned(db, spec, ExecutionTarget::kHost);
    const QueryResult device = RunPinned(db, spec, ExecutionTarget::kSmartSsd);
    const QueryResult split =
        RunAuto(db, spec, PlacementPolicyKind::kAdaptive);

    ASSERT_TRUE(split.stats.split_scan) << spec.name;
    EXPECT_GE(split.stats.fragments, 2u) << spec.name;
    EXPECT_EQ(split.stats.target, ExecutionTarget::kSmartSsd) << spec.name;
    ExpectIdentical(host, split, spec.name + " split-vs-host");
    ExpectIdentical(device, split, spec.name + " split-vs-device");
    // The two sides partition the scan: together they read exactly the
    // monolithic page set.
    EXPECT_EQ(split.stats.pages_read + split.stats.pages_skipped,
              host.stats.pages_read + host.stats.pages_skipped)
        << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, SplitIdentityTest,
                         ::testing::Values(storage::PageLayout::kNsm,
                                           storage::PageLayout::kPax));

// Ineligible shapes (joins, top-N) must still execute under the
// adaptive policy — they run whole, on the device.
TEST(SplitEligibility, IneligibleSpecsFallBackToWholeQueryRouting) {
  Database db(DatabaseOptions::PaperSmartSsd());
  SMARTSSD_CHECK(
      tpch::LoadLineitem(db, "lineitem", kSf, storage::PageLayout::kNsm)
          .ok());
  SMARTSSD_CHECK(
      tpch::LoadPart(db, "part", kSf, storage::PageLayout::kNsm).ok());
  SMARTSSD_CHECK(tpch::LoadSyntheticS(db, "S", 8, 20'000, 1'000,
                                      storage::PageLayout::kNsm)
                     .ok());
  db.ResetForColdRun();

  const exec::QuerySpec join = tpch::Q14Spec("lineitem", "part");
  const exec::QuerySpec topn = tpch::TopNQuerySpec("S", 8, 0.10, 10);
  for (const exec::QuerySpec* spec : {&join, &topn}) {
    const QueryResult host = RunPinned(db, *spec, ExecutionTarget::kHost);
    const QueryResult routed =
        RunAuto(db, *spec, PlacementPolicyKind::kAdaptive);
    EXPECT_FALSE(routed.stats.split_scan) << spec->name;
    EXPECT_EQ(routed.stats.target, ExecutionTarget::kSmartSsd) << spec->name;
    EXPECT_EQ(host.rows, routed.rows) << spec->name;
    EXPECT_EQ(host.agg_values, routed.agg_values) << spec->name;
  }
}

// The adaptive router is deterministic: two identical databases driven
// by the same arrival trace produce byte-identical completion records —
// same routing decisions (target, split flags), same virtual end times,
// same result bytes. Admission (kMaxQueriesInFlight) allows more
// queries in flight than the device's 3 session grants, so the trace
// exercises both of the policy's load-dependent routes: split scans
// while a grant is free, and whole queries on the host while every
// grant is held.
TEST(AdaptiveDeterminism, FixedTraceYieldsIdenticalRoutingAndResults) {
  DatabaseOptions options = DatabaseOptions::PaperSmartSsd();
  options.placement = PlacementPolicyKind::kAdaptive;

  auto run_trace = [&options]() {
    Database db(options);
    Load(db, storage::PageLayout::kPax);
    WorkloadScheduler sched(&db);
    WorkloadQueryConfig config;
    config.client = "trace";
    config.spec = tpch::Q6Spec("lineitem");
    config.target = std::nullopt;  // policy decides
    // 12 arrivals at a gap far below per-query latency: admission
    // fills up, so later arrivals find every session grant held.
    sched.AddOpenLoopClient(std::move(config), 12,
                            /*inter_arrival=*/1'000'000);
    auto records = sched.Run();
    SMARTSSD_CHECK(records.ok());
    return std::move(records).value();
  };

  const auto first = run_trace();
  const auto second = run_trace();
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), 12u);
  int splits = 0;
  int host_overflows = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].admitted, second[i].admitted);
    EXPECT_EQ(first[i].end, second[i].end);
    ASSERT_TRUE(first[i].result.ok());
    ASSERT_TRUE(second[i].result.ok());
    const QueryResult& a = first[i].result.value();
    const QueryResult& b = second[i].result.value();
    EXPECT_EQ(a.stats.target, b.stats.target);
    EXPECT_EQ(a.stats.split_scan, b.stats.split_scan);
    EXPECT_EQ(a.stats.fragments, b.stats.fragments);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.agg_values, b.agg_values);
    splits += a.stats.split_scan ? 1 : 0;
    const bool host_overflow =
        !a.stats.split_scan && a.stats.target == ExecutionTarget::kHost;
    host_overflows += host_overflow ? 1 : 0;
  }
  // Without both routes the trace never reached a grant-dependent
  // decision and this test pins nothing.
  EXPECT_GE(splits, 1);
  EXPECT_GE(host_overflows, 1);
}

void TripBreaker(Database& db) {
  engine::DeviceCircuitBreaker& breaker = db.circuit_breaker();
  for (std::uint32_t i = 0; i < breaker.config().failure_threshold; ++i) {
    breaker.RecordFailure(0, "pretrip");
  }
  SMARTSSD_CHECK(breaker.state() ==
                 engine::DeviceCircuitBreaker::State::kOpen);
}

// An open breaker excludes the device from adaptive placement up front:
// the query routes to the host at decision time, never attempting (and
// never falling back from) a device dispatch.
TEST(BreakerExclusion, OpenBreakerRoutesHostUpFrontWithoutDispatch) {
  Database db(DatabaseOptions::PaperSmartSsd());
  Load(db, storage::PageLayout::kNsm);
  const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
  const QueryResult healthy = RunPinned(db, spec, ExecutionTarget::kHost);

  TripBreaker(db);
  const QueryResult routed =
      RunAuto(db, spec, PlacementPolicyKind::kAdaptive);
  EXPECT_EQ(routed.stats.target, ExecutionTarget::kHost);
  EXPECT_FALSE(routed.stats.split_scan);
  EXPECT_FALSE(routed.stats.fell_back);
  EXPECT_EQ(routed.stats.device_attempts, 0u);
  EXPECT_EQ(healthy.rows, routed.rows);
  EXPECT_EQ(healthy.agg_values, routed.agg_values);
}

// Past the cooldown the breaker admits exactly one half-open probe, and
// only a device run reports back to it. A query that overflows to the
// host because every session grant is held must leave the probe for
// the next query that reaches the device.
TEST(BreakerExclusion, HostOverflowLeavesTheProbeToTheDevice) {
  Database db(DatabaseOptions::PaperSmartSsd());
  Load(db, storage::PageLayout::kNsm);
  const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
  const auto bound = exec::Bind(spec, db.catalog());
  ASSERT_TRUE(bound.ok());
  TripBreaker(db);
  const SimTime past_cooldown = db.circuit_breaker().config().cooldown + 1;

  int held = 0;
  while (db.ssd()->AcquireSessionThread().ok()) ++held;
  ASSERT_GT(held, 0);
  auto overflow = engine::DecidePlacement(
      &db, *bound, PlacementPolicyKind::kAdaptive, past_cooldown);
  ASSERT_TRUE(overflow.ok());
  ASSERT_EQ(overflow->fragments.size(), 1u);
  EXPECT_EQ(overflow->fragments[0].target, ExecutionTarget::kHost);

  for (int i = 0; i < held; ++i) db.ssd()->ReleaseSessionThread();
  auto probe = engine::DecidePlacement(
      &db, *bound, PlacementPolicyKind::kAdaptive, past_cooldown);
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->fragments.size(), 2u) << probe->reason;
  EXPECT_EQ(probe->fragments[1].target, ExecutionTarget::kSmartSsd);
  EXPECT_TRUE(db.circuit_breaker().probe_in_flight());
}

// DecidePlacement itself: with a session grant free, a splittable scan
// becomes two fragments, host then device, that partition the outer
// table in page order.
TEST(AdaptivePlacement, GrantFreeSplitsIntoPageOrderFragments) {
  Database db(DatabaseOptions::PaperSmartSsd());
  Load(db, storage::PageLayout::kNsm);
  const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
  const auto bound = exec::Bind(spec, db.catalog());
  ASSERT_TRUE(bound.ok());
  ASSERT_GT(db.runtime()->session_slots_free(), 0);

  auto split = engine::DecidePlacement(&db, *bound,
                                       PlacementPolicyKind::kAdaptive, 0);
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->fragments.size(), 2u);
  EXPECT_EQ(split->fragments[0].target, ExecutionTarget::kHost);
  EXPECT_EQ(split->fragments[1].target, ExecutionTarget::kSmartSsd);
  EXPECT_EQ(split->fragments[0].first_page, 0u);
  EXPECT_GT(split->fragments[0].page_count, 0u);
  EXPECT_GT(split->fragments[1].page_count, 0u);
  EXPECT_EQ(split->fragments[0].first_page + split->fragments[0].page_count,
            split->fragments[1].first_page);
  EXPECT_EQ(split->fragments[1].first_page + split->fragments[1].page_count,
            bound->outer->page_count);
}

}  // namespace
}  // namespace smartssd
