#include <gtest/gtest.h>

#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

namespace smartssd::engine {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : db_(DatabaseOptions::PaperSmartSsd()) {
    SMARTSSD_CHECK(tpch::LoadLineitem(db_, "lineitem", 0.005,
                                      storage::PageLayout::kPax)
                       .ok());
    SMARTSSD_CHECK(
        tpch::LoadPart(db_, "part", 0.005, storage::PageLayout::kPax).ok());
    db_.ResetForColdRun();
  }

  exec::BoundQuery BindOrDie(const exec::QuerySpec& spec) {
    auto bound = exec::Bind(spec, db_.catalog());
    SMARTSSD_CHECK(bound.ok());
    return std::move(bound).value();
  }

  Database db_;
};

TEST_F(PlannerTest, SelectiveAggregateGoesToDevice) {
  const auto spec = tpch::Q6Spec("lineitem");
  const auto bound = BindOrDie(spec);
  PushdownPlanner planner(&db_);
  auto decision =
      planner.Decide(bound, PlanHints{.predicate_selectivity = 0.006});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->target, ExecutionTarget::kSmartSsd);
  EXPECT_LT(decision->est_smart_seconds, decision->est_host_seconds);
}

TEST_F(PlannerTest, NonSmartDeviceAlwaysHost) {
  Database plain(DatabaseOptions::PaperSsd());
  SMARTSSD_CHECK(tpch::LoadLineitem(plain, "lineitem", 0.005,
                                    storage::PageLayout::kNsm)
                     .ok());
  const auto spec = tpch::Q6Spec("lineitem");
  auto bound = exec::Bind(spec, plain.catalog());
  ASSERT_TRUE(bound.ok());
  PushdownPlanner planner(&plain);
  auto decision = planner.Decide(*bound, PlanHints{});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->target, ExecutionTarget::kHost);
  EXPECT_NE(decision->reason.find("runtime"), std::string::npos);
}

TEST_F(PlannerTest, DirtyPagesForceHost) {
  const auto spec = tpch::Q6Spec("lineitem");
  const auto bound = BindOrDie(spec);
  auto info = db_.catalog().GetTable("lineitem");
  ASSERT_TRUE(info.ok());
  std::vector<std::byte> page(db_.device().page_size(), std::byte{0});
  ASSERT_TRUE(
      db_.buffer_pool().WritePage((*info)->first_lpn + 1, page, 0).ok());

  PushdownPlanner planner(&db_);
  auto decision = planner.Decide(bound, PlanHints{});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->target, ExecutionTarget::kHost);
  EXPECT_NE(decision->reason.find("coherence"), std::string::npos);
  ASSERT_TRUE(db_.buffer_pool().FlushAll(0).ok());
}

TEST_F(PlannerTest, MostlyCachedTableStaysOnHost) {
  // A small table that fits in the pool entirely. Wide tuples so that
  // pushdown is attractive when cold (cf. the tuple-width sweep: narrow
  // tuples are CPU-bound on the device and stay on the host anyway).
  SMARTSSD_CHECK(tpch::LoadSyntheticS(db_, "tiny", 64, 2000, 10,
                                      storage::PageLayout::kPax)
                     .ok());
  db_.ResetForColdRun();
  const auto spec = tpch::ScanQuerySpec("tiny", 64, 0.01, true);
  const auto bound = BindOrDie(spec);
  PushdownPlanner planner(&db_);

  // Cold: the planner would push down.
  auto cold = planner.Decide(bound, PlanHints{.predicate_selectivity = 0.01});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->target, ExecutionTarget::kSmartSsd);

  // Warm the pool with a host run, then ask again.
  QueryExecutor executor(&db_);
  ASSERT_TRUE(executor.Execute(spec, ExecutionTarget::kHost).ok());
  auto warm = planner.Decide(bound, PlanHints{.predicate_selectivity = 0.01});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->target, ExecutionTarget::kHost);
  EXPECT_NE(warm->reason.find("cached"), std::string::npos);
}

TEST_F(PlannerTest, OversizedHashTableForcesHost) {
  // Shrink device DRAM so PART's hash table cannot fit.
  DatabaseOptions options = DatabaseOptions::PaperSmartSsd();
  options.ssd.dram.capacity_bytes = 1 * kMiB;
  Database small(options);
  SMARTSSD_CHECK(tpch::LoadLineitem(small, "lineitem", 0.005,
                                    storage::PageLayout::kPax)
                     .ok());
  SMARTSSD_CHECK(
      tpch::LoadPart(small, "part", 0.005, storage::PageLayout::kPax).ok());
  small.ResetForColdRun();
  const auto spec = tpch::Q14Spec("lineitem", "part");
  auto bound = exec::Bind(spec, small.catalog());
  ASSERT_TRUE(bound.ok());
  PushdownPlanner planner(&small);
  auto decision = planner.Decide(*bound, PlanHints{});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->target, ExecutionTarget::kHost);
  EXPECT_NE(decision->reason.find("DRAM"), std::string::npos);
}

TEST_F(PlannerTest, WideRowReturningScanStaysOnHost) {
  SMARTSSD_CHECK(tpch::LoadSyntheticS(db_, "wide", 16, 20000, 10,
                                      storage::PageLayout::kPax)
                     .ok());
  db_.ResetForColdRun();
  // Returning ~all columns of ~all rows: result transfer dominates, the
  // cost model must keep it on the host.
  const auto spec = tpch::ScanQuerySpec("wide", 16, 1.0, false);
  const auto bound = BindOrDie(spec);
  PushdownPlanner planner(&db_);
  auto decision =
      planner.Decide(bound, PlanHints{.predicate_selectivity = 1.0});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->target, ExecutionTarget::kHost);
  EXPECT_NE(decision->reason.find("cost"), std::string::npos);
}

// Past the cooldown the breaker admits exactly one half-open probe, and
// only a device run reports back to it. A scan the cost model keeps on
// the host must leave the probe for the next query that reaches the
// device; otherwise the device stays bypassed a further cooldown with
// no probe run.
TEST_F(PlannerTest, HostRoutedScanLeavesTheBreakerProbeToTheDevice) {
  SMARTSSD_CHECK(tpch::LoadSyntheticS(db_, "wide", 16, 20000, 10,
                                      storage::PageLayout::kPax)
                     .ok());
  db_.ResetForColdRun();
  DeviceCircuitBreaker& breaker = db_.circuit_breaker();
  for (std::uint32_t i = 0; i < breaker.config().failure_threshold; ++i) {
    breaker.RecordFailure(0, "pretrip");
  }
  ASSERT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);
  const SimTime past_cooldown = breaker.config().cooldown + 1;
  PushdownPlanner planner(&db_);

  const auto wide_spec = tpch::ScanQuerySpec("wide", 16, 1.0, false);
  auto host = planner.Decide(BindOrDie(wide_spec),
                             PlanHints{.predicate_selectivity = 1.0},
                             past_cooldown);
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(host->target, ExecutionTarget::kHost);
  EXPECT_FALSE(breaker.probe_in_flight());

  const auto q6_spec = tpch::Q6Spec("lineitem");
  auto probe = planner.Decide(BindOrDie(q6_spec),
                              PlanHints{.predicate_selectivity = 0.006},
                              past_cooldown);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->target, ExecutionTarget::kSmartSsd) << probe->reason;
  EXPECT_TRUE(breaker.probe_in_flight());
}

TEST_F(PlannerTest, ExecuteAutoFollowsTheDecision) {
  QueryExecutor executor(&db_);
  db_.ResetForColdRun();
  // Q6 on cold PAX LINEITEM: the planner pushes down.
  auto auto_run = executor.ExecuteAuto(
      tpch::Q6Spec("lineitem"), PlanHints{.predicate_selectivity = 0.006});
  ASSERT_TRUE(auto_run.ok());
  EXPECT_EQ(auto_run->stats.target, ExecutionTarget::kSmartSsd);

  // Same query on a non-smart device: auto must fall back to the host.
  Database plain(DatabaseOptions::PaperSsd());
  SMARTSSD_CHECK(tpch::LoadLineitem(plain, "lineitem", 0.005,
                                    storage::PageLayout::kNsm)
                     .ok());
  plain.ResetForColdRun();
  QueryExecutor plain_executor(&plain);
  auto fallback = plain_executor.ExecuteAuto(tpch::Q6Spec("lineitem"));
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->stats.target, ExecutionTarget::kHost);
  EXPECT_EQ(fallback->agg_values, auto_run->agg_values);
}

// The cost estimates should be in the ballpark of measured execution —
// within 2x is plenty for a pushdown decision.
TEST_F(PlannerTest, EstimatesTrackMeasuredElapsed) {
  const auto spec = tpch::Q6Spec("lineitem");
  const auto bound = BindOrDie(spec);
  PushdownPlanner planner(&db_);
  const PlanHints hints{.predicate_selectivity = 0.006};
  const double est_host = planner.EstimateHostSeconds(bound, hints);
  const double est_smart = planner.EstimateSmartSeconds(bound, hints);

  QueryExecutor executor(&db_);
  db_.ResetForColdRun();
  auto host = executor.Execute(spec, ExecutionTarget::kHost);
  ASSERT_TRUE(host.ok());
  db_.ResetForColdRun();
  auto smart = executor.Execute(spec, ExecutionTarget::kSmartSsd);
  ASSERT_TRUE(smart.ok());

  EXPECT_GT(est_host, host->stats.elapsed_seconds() / 2);
  EXPECT_LT(est_host, host->stats.elapsed_seconds() * 2);
  EXPECT_GT(est_smart, smart->stats.elapsed_seconds() / 2);
  EXPECT_LT(est_smart, smart->stats.elapsed_seconds() * 2);
}

}  // namespace
}  // namespace smartssd::engine
