// The write path end-to-end: appends into reserved extents, resumable
// update/append cursors, zone-map recovery at flush (the regression the
// old drop-forever behavior hid), ingest batches as resumable tasks, and
// ingest clients co-scheduled with queries under the workload scheduler.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/ingest.h"
#include "engine/query_task.h"
#include "engine/update.h"
#include "engine/workload.h"
#include "storage/nsm_page.h"
#include "storage/pax_page.h"
#include "tpch/synthetic.h"

namespace smartssd::engine {
namespace {

namespace ex = ::smartssd::expr;

// Deterministic 4-column INT32 table: Col_1 = row (key), Col_2 =
// row % 97, Col_3 = (row * 7) % 1000, Col_4 = 5. Pure in the row index,
// so appended rows are indistinguishable from loaded ones.
void FillRow(std::uint64_t row, storage::TupleWriter& writer) {
  writer.SetInt32(0, static_cast<std::int32_t>(row));
  writer.SetInt32(1, static_cast<std::int32_t>(row % 97));
  writer.SetInt32(2, static_cast<std::int32_t>((row * 7) % 1000));
  writer.SetInt32(3, 5);
}

constexpr std::uint64_t kBaseRows = 4'000;

void LoadInto(Database& db, storage::PageLayout layout,
              std::uint64_t reserve_extra_pages = 8) {
  SMARTSSD_CHECK(db.LoadTable("T", tpch::SyntheticSchema(4), layout,
                              kBaseRows, FillRow, reserve_extra_pages)
                     .ok());
  SMARTSSD_CHECK(db.BuildZoneMap("T").ok());
  db.ResetForColdRun();
}

class IngestTest : public ::testing::TestWithParam<storage::PageLayout> {
 protected:
  IngestTest() : db_(DatabaseOptions::PaperSmartSsd()) {
    LoadInto(db_, GetParam());
  }

  // SUM(Col_3) over rows with Col_1 in [lo, hi].
  std::int64_t RangeSum(Database& db, ExecutionTarget target,
                        std::int64_t lo, std::int64_t hi) {
    exec::QuerySpec spec;
    spec.table = "T";
    spec.predicate = ex::And([&] {
      std::vector<ex::ExprPtr> terms;
      terms.push_back(ex::Ge(ex::Col(0), ex::Lit(lo)));
      terms.push_back(ex::Le(ex::Col(0), ex::Lit(hi)));
      return terms;
    }());
    spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s"});
    QueryExecutor executor(&db);
    auto result = executor.Execute(spec, target);
    SMARTSSD_CHECK(result.ok());
    return result->agg_values[0];
  }

  Database db_;
};

TEST_P(IngestTest, AppendVisibleOnHostThenPushdownAfterFlush) {
  const std::int64_t quiet =
      RangeSum(db_, ExecutionTarget::kHost, 0, 1 << 30);

  TableAppender appender(&db_);
  auto stats = appender.Append("T", 100, FillRow);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_appended, 100u);
  EXPECT_GT(stats->pages_dirtied, 0u);

  // Host sees the appended rows through the pool immediately.
  std::int64_t expected = quiet;
  for (std::uint64_t r = kBaseRows; r < kBaseRows + 100; ++r) {
    expected += static_cast<std::int64_t>((r * 7) % 1000);
  }
  EXPECT_EQ(RangeSum(db_, ExecutionTarget::kHost, 0, 1 << 30), expected);

  // Pushdown is gated until the dirty pages flush back.
  exec::QuerySpec spec;
  spec.table = "T";
  spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s"});
  QueryExecutor executor(&db_);
  auto refused = executor.Execute(spec, ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(db_.FlushAll(0).ok());
  EXPECT_EQ(RangeSum(db_, ExecutionTarget::kSmartSsd, 0, 1 << 30),
            expected);
}

TEST_P(IngestTest, ReservedExtentExhaustionIsFailedPrecondition) {
  Database small(DatabaseOptions::PaperSmartSsd());
  LoadInto(small, GetParam(), /*reserve_extra_pages=*/1);
  auto info = small.catalog().GetTable("T");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->reserved_pages, (*info)->page_count + 1);

  // One page of headroom: appending several pages' worth of rows must
  // fill it and then fail, leaving what fit durable.
  TableAppender appender(&small);
  auto stats = appender.Append("T", 10'000, FillRow);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

TEST_P(IngestTest, UpdateCursorMatchesMonolithicUpdate) {
  Database other(DatabaseOptions::PaperSmartSsd());
  LoadInto(other, GetParam());

  const auto pred = ex::Le(ex::Col(0), ex::Lit(500));
  const auto mutate = [](const expr::RowView&,
                         storage::TupleWriter& writer) {
    writer.SetInt32(2, 11);
  };

  TableUpdater updater(&db_);
  auto mono = updater.Update("T", pred.get(), mutate);
  ASSERT_TRUE(mono.ok());

  auto cursor = UpdateCursor::Open(&other, "T", pred.get(), mutate);
  ASSERT_TRUE(cursor.ok());
  SimTime t = 0;
  int steps = 0;
  while (!cursor->done()) {
    auto step = cursor->StepPage(t);
    ASSERT_TRUE(step.ok());
    t = *step;
    ++steps;
  }
  EXPECT_GT(steps, 1);  // actually page-granular
  EXPECT_EQ(cursor->stats().rows_matched, mono->rows_matched);
  EXPECT_EQ(cursor->stats().pages_dirtied, mono->pages_dirtied);
  EXPECT_EQ(cursor->stats().end, mono->end);
  EXPECT_EQ(RangeSum(db_, ExecutionTarget::kHost, 0, 1 << 30),
            RangeSum(other, ExecutionTarget::kHost, 0, 1 << 30));
}

// The regression this PR exists to pin: an update used to *drop* the
// zone map permanently; now it only goes stale and FlushAll rebuilds it.
TEST_P(IngestTest, FlushAllRestoresZoneMapAfterUpdate) {
  ASSERT_NE(db_.zone_map("T"), nullptr);
  TableUpdater updater(&db_);
  const auto pred = ex::Le(ex::Col(0), ex::Lit(100));
  ASSERT_TRUE(updater
                  .Update("T", pred.get(),
                          [](const expr::RowView&,
                             storage::TupleWriter& writer) {
                            writer.SetInt32(2, 999);
                          })
                  .ok());
  EXPECT_EQ(db_.zone_map("T"), nullptr);  // stale while dirty

  ASSERT_TRUE(db_.FlushAll(0).ok());
  const storage::ZoneMap* rebuilt = db_.zone_map("T");
  ASSERT_NE(rebuilt, nullptr);

  // The rebuilt map must bound the *new* values: a pruned scan for the
  // mutated rows still finds all of them, on both paths.
  const std::int64_t want = 999 * 101;
  EXPECT_EQ(RangeSum(db_, ExecutionTarget::kHost, 0, 100), want);
  EXPECT_EQ(RangeSum(db_, ExecutionTarget::kSmartSsd, 0, 100), want);
}

TEST_P(IngestTest, AppendWidensZoneMapInPlace) {
  ASSERT_NE(db_.zone_map("T"), nullptr);
  TableAppender appender(&db_);
  ASSERT_TRUE(appender.Append("T", 200, FillRow).ok());
  // Widen-on-append keeps the map live (no stale window)...
  EXPECT_NE(db_.zone_map("T"), nullptr);

  // ...and sound: a pruned range query over the appended key range
  // finds every new row.
  std::int64_t want = 0;
  for (std::uint64_t r = kBaseRows; r < kBaseRows + 200; ++r) {
    want += static_cast<std::int64_t>((r * 7) % 1000);
  }
  EXPECT_EQ(RangeSum(db_, ExecutionTarget::kHost,
                     static_cast<std::int64_t>(kBaseRows), 1 << 30),
            want);
  ASSERT_TRUE(db_.FlushAll(0).ok());
  EXPECT_EQ(RangeSum(db_, ExecutionTarget::kSmartSsd,
                     static_cast<std::int64_t>(kBaseRows), 1 << 30),
            want);
}

TEST_P(IngestTest, IngestTaskRunsBatchToCompletion) {
  const auto pred = ex::Le(ex::Col(0), ex::Lit(50));
  IngestBatchSpec spec;
  spec.table = "T";
  spec.with_update = true;
  spec.update_predicate = pred.get();
  spec.mutate = [](const expr::RowView&, storage::TupleWriter& writer) {
    writer.SetInt32(2, 3);
  };
  spec.append_rows = 60;
  spec.append_gen = FillRow;

  IngestTask task(&db_, &spec, /*start=*/0);
  int steps = 0;
  while (!task.finished()) {
    const StepOutcome outcome = task.Step();
    ASSERT_GE(outcome.at, 0);
    ++steps;
  }
  auto result = task.TakeResult();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_updated, 51u);
  EXPECT_EQ(result->rows_appended, 60u);
  EXPECT_GT(result->pages_flushed, 0u);
  EXPECT_GT(result->end, 0);
  EXPECT_GT(steps, 3);  // update + append + flush + restore all stepped

  // The batch flushed and restored: pushdown eligible again, zone map
  // live, data as mutated.
  auto info = db_.catalog().GetTable("T");
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(db_.buffer_pool().HasDirtyInRange((*info)->first_lpn,
                                                 (*info)->reserved_pages));
  EXPECT_NE(db_.zone_map("T"), nullptr);
  EXPECT_EQ(RangeSum(db_, ExecutionTarget::kSmartSsd, 0, 50), 3 * 51);
}

// A device session takes a shared snapshot of the zone map when it
// starts. A writer that widens the map (which then widens a copy) or
// marks it stale before the session's OPEN must not change what the
// session prunes: it matches its solo run exactly.
TEST_P(IngestTest, DeviceSessionKeepsItsZoneMapSnapshot) {
  exec::QuerySpec spec;  // keys [2000, 2500]: pages in the middle
  spec.table = "T";
  spec.predicate = ex::And([] {
    std::vector<ex::ExprPtr> terms;
    terms.push_back(ex::Ge(ex::Col(0), ex::Lit(2000)));
    terms.push_back(ex::Le(ex::Col(0), ex::Lit(2500)));
    return terms;
  }());
  spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s"});

  enum class Writer { kNone, kWiden, kStale };
  auto run = [&](Writer writer) {
    Database db(DatabaseOptions::PaperSmartSsd());
    LoadInto(db, GetParam());
    QueryTask task(&db, &spec, ExecutionTarget::kSmartSsd, PlanHints{},
                   /*start=*/0, /*wait_for_grant=*/false);
    task.Step();  // bind and place
    task.Step();  // session start: the snapshot is taken here
    const storage::ZoneMap* live = db.zone_map("T");
    if (writer == Writer::kWiden) {
      // Widen page 0 over the query's range, so pruning with the live
      // map would read it.
      const storage::Schema schema = tpch::SyntheticSchema(4);
      std::vector<std::byte> tuple(schema.tuple_size());
      storage::TupleWriter w(&schema, tuple);
      FillRow(2200, w);
      std::vector<std::byte> image;
      if (GetParam() == storage::PageLayout::kNsm) {
        storage::NsmPageBuilder builder(&schema, db.device().page_size());
        SMARTSSD_CHECK(builder.Append(tuple));
        image.assign(builder.image().begin(), builder.image().end());
      } else {
        storage::PaxPageBuilder builder(&schema, db.device().page_size());
        SMARTSSD_CHECK(builder.Append(tuple));
        image.assign(builder.image().begin(), builder.image().end());
      }
      EXPECT_TRUE(db.WidenZoneMap("T", 0, image).ok());
      EXPECT_NE(db.zone_map("T"), live);  // widened a copy
      EXPECT_TRUE(db.zone_map("T")->PageMayMatch(0, 0, 2000, 2500));
    } else if (writer == Writer::kStale) {
      db.MarkZoneMapStale("T");
      EXPECT_EQ(db.zone_map("T"), nullptr);
    }
    while (!task.finished()) task.Step();
    auto result = task.TakeResult();
    SMARTSSD_CHECK(result.ok());
    return std::move(result).value();
  };

  const QueryResult solo = run(Writer::kNone);
  EXPECT_GT(solo.stats.pages_skipped, 0u);  // pruning is in play
  EXPECT_EQ(solo.stats.target, ExecutionTarget::kSmartSsd);
  for (const Writer writer : {Writer::kWiden, Writer::kStale}) {
    const QueryResult got = run(writer);
    EXPECT_EQ(got.stats.target, ExecutionTarget::kSmartSsd);
    EXPECT_EQ(got.agg_values, solo.agg_values);
    EXPECT_EQ(got.rows, solo.rows);
    EXPECT_TRUE(got.stats.counts == solo.stats.counts);
    EXPECT_EQ(got.stats.pages_read, solo.stats.pages_read);
    EXPECT_EQ(got.stats.pages_skipped, solo.stats.pages_skipped);
    EXPECT_EQ(got.stats.end, solo.stats.end);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, IngestTest,
                         ::testing::Values(storage::PageLayout::kNsm,
                                           storage::PageLayout::kPax),
                         [](const auto& info) {
                           return std::string(
                               storage::PageLayoutName(info.param));
                         });

// --- Co-scheduled ingest + queries -------------------------------------

struct MixedRun {
  std::vector<CompletedQuery> queries;
  std::vector<CompletedIngest> ingests;
  std::int64_t final_sum = 0;
};

MixedRun RunMixedWorkload() {
  Database db(DatabaseOptions::PaperSmartSsd());
  LoadInto(db, storage::PageLayout::kNsm);

  WorkloadScheduler sched(&db);

  // Scan client: SUM(Col_4) — the ingest below never touches Col_4 or
  // the row population it scans, so every repetition must agree.
  WorkloadQueryConfig scan;
  scan.client = "scan";
  scan.spec.table = "T";
  scan.spec.aggregates.push_back(
      {exec::AggSpec::Fn::kSum, ex::Col(3), "s"});
  scan.target = ExecutionTarget::kHost;
  sched.AddClosedLoopClient(std::move(scan), 4);

  // Ingest client: two batches, each updating Col_3 on a key prefix and
  // appending rows.
  IngestClientConfig ingest;
  ingest.client = "writer";
  ingest.spec.table = "T";
  ingest.spec.with_update = true;
  static const ex::ExprPtr kPred = ex::Le(ex::Col(0), ex::Lit(200));
  ingest.spec.update_predicate = kPred.get();
  ingest.spec.mutate = [](const expr::RowView&,
                          storage::TupleWriter& writer) {
    writer.SetInt32(2, 1);
  };
  ingest.spec.append_rows = 50;
  ingest.spec.append_gen = FillRow;
  sched.AddIngestClient(std::move(ingest), 2);

  auto records = sched.Run();
  SMARTSSD_CHECK(records.ok());

  MixedRun run;
  run.queries = std::move(records).value();
  run.ingests = sched.completed_ingests();

  exec::QuerySpec sum;
  sum.table = "T";
  sum.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s"});
  QueryExecutor executor(&db);
  auto result = executor.Execute(sum, ExecutionTarget::kHost);
  SMARTSSD_CHECK(result.ok());
  run.final_sum = result->agg_values[0];
  return run;
}

TEST(IngestWorkloadTest, CoScheduledIngestIsDeterministicAndExact) {
  const MixedRun first = RunMixedWorkload();
  const MixedRun second = RunMixedWorkload();

  // Determinism: byte-identical completion records across fresh runs.
  ASSERT_EQ(first.queries.size(), 4u);
  ASSERT_EQ(first.ingests.size(), 2u);
  ASSERT_EQ(second.queries.size(), first.queries.size());
  ASSERT_EQ(second.ingests.size(), first.ingests.size());
  for (std::size_t i = 0; i < first.queries.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(first.queries[i].id, second.queries[i].id);
    EXPECT_EQ(first.queries[i].end, second.queries[i].end);
    ASSERT_TRUE(first.queries[i].result.ok());
    ASSERT_TRUE(second.queries[i].result.ok());
    EXPECT_EQ(first.queries[i].result.value().agg_values,
              second.queries[i].result.value().agg_values);
  }
  for (std::size_t i = 0; i < first.ingests.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(first.ingests[i].result.ok())
        << first.ingests[i].result.status().ToString();
    EXPECT_EQ(first.ingests[i].end, second.ingests[i].end);
    EXPECT_EQ(first.ingests[i].result->rows_updated, 201u);
    EXPECT_EQ(first.ingests[i].result->rows_appended, 50u);
  }

  // Exactness: the scan never reads a torn value — Col_4 is invariant
  // under the ingest, so every repetition returns the quiet-table sum
  // over however many rows were visible at its point in the timeline.
  for (const CompletedQuery& q : first.queries) {
    ASSERT_TRUE(q.result.ok());
    const std::int64_t sum = q.result.value().agg_values[0];
    EXPECT_EQ(sum % 5, 0);
    EXPECT_GE(sum, static_cast<std::int64_t>(kBaseRows) * 5);
    EXPECT_LE(sum, static_cast<std::int64_t>(kBaseRows + 100) * 5);
  }

  // Ground truth: the final relation equals applying the same two
  // batches on a quiet database, no scheduler involved.
  Database quiet(DatabaseOptions::PaperSmartSsd());
  LoadInto(quiet, storage::PageLayout::kNsm);
  const auto pred = ex::Le(ex::Col(0), ex::Lit(200));
  for (int batch = 0; batch < 2; ++batch) {
    TableUpdater updater(&quiet);
    ASSERT_TRUE(updater
                    .Update("T", pred.get(),
                            [](const expr::RowView&,
                               storage::TupleWriter& writer) {
                              writer.SetInt32(2, 1);
                            })
                    .ok());
    TableAppender appender(&quiet);
    ASSERT_TRUE(appender.Append("T", 50, FillRow).ok());
  }
  ASSERT_TRUE(quiet.FlushAll(0).ok());
  exec::QuerySpec sum;
  sum.table = "T";
  sum.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s"});
  QueryExecutor executor(&quiet);
  auto truth = executor.Execute(sum, ExecutionTarget::kHost);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(first.final_sum, truth->agg_values[0]);
  EXPECT_EQ(second.final_sum, truth->agg_values[0]);
}

}  // namespace
}  // namespace smartssd::engine
