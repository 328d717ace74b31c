// Direct tests of PushdownProgram (the operator code "uploaded" into
// the device) against the smart runtime, below the executor.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/pushdown_program.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"

namespace smartssd::exec {
namespace {

namespace ex = ::smartssd::expr;

class PushdownProgramTest : public ::testing::Test {
 protected:
  PushdownProgramTest() : db_(engine::DatabaseOptions::PaperSmartSsd()) {
    SMARTSSD_CHECK(tpch::LoadSyntheticS(db_, "S", 64, 20'000, 50,
                                        storage::PageLayout::kPax)
                       .ok());
    SMARTSSD_CHECK(tpch::LoadSyntheticR(db_, "R", 64, 50,
                                        storage::PageLayout::kPax)
                       .ok());
    db_.ResetForColdRun();
  }

  engine::Database db_;
};

TEST_F(PushdownProgramTest, ScanProgramLifecycle) {
  const auto spec = tpch::ScanQuerySpec("S", 64, 0.1, true);
  auto bound = Bind(spec, db_.catalog());
  ASSERT_TRUE(bound.ok());
  PushdownProgram program(&*bound);

  // Before Open, the program only declares static facts.
  EXPECT_EQ(program.name(), "scan_agg");
  EXPECT_GE(program.DramBytesRequired(), 2u * 1024 * 1024);
  const auto extents = program.InputExtents();
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].first_lpn, bound->outer->first_lpn);
  EXPECT_EQ(extents[0].count, bound->outer->page_count);

  std::vector<std::byte> output;
  auto session = db_.runtime()->RunSession(program, 0, &output);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->pages_processed, bound->outer->page_count);
  EXPECT_EQ(output.size(), 8u);  // one SUM
  EXPECT_EQ(program.counts().tuples, 20'000u);
  // Counts contain predicate work for every tuple.
  EXPECT_GE(program.counts().eval.comparisons, 20'000u);
}

TEST_F(PushdownProgramTest, JoinProgramReservesHashTableDram) {
  const auto spec = tpch::JoinQuerySpec("S", "R", 0.5);
  auto bound = Bind(spec, db_.catalog());
  ASSERT_TRUE(bound.ok());
  PushdownProgram with_join(&*bound);

  const auto scan_spec = tpch::ScanQuerySpec("S", 64, 0.5, true);
  auto scan_bound = Bind(scan_spec, db_.catalog());
  ASSERT_TRUE(scan_bound.ok());
  PushdownProgram without_join(&*scan_bound);

  EXPECT_GT(with_join.DramBytesRequired(),
            without_join.DramBytesRequired());

  std::vector<std::byte> output;
  auto session = db_.runtime()->RunSession(with_join, 0, &output);
  ASSERT_TRUE(session.ok());
  // Build-phase work is part of the session: inserts for all 50 R rows.
  EXPECT_EQ(with_join.counts().hash_inserts, 50u);
  // OPEN (with the internal build read) finishes before processing.
  EXPECT_GT(session->open_done, session->open_issued);
  EXPECT_GE(session->processing_done, session->open_done);
}

TEST_F(PushdownProgramTest, HybridJoinUnderTinyBudgetMatchesUnconstrained) {
  const auto spec = tpch::JoinQuerySpec("S", "R", 0.5);
  auto bound = Bind(spec, db_.catalog());
  ASSERT_TRUE(bound.ok());

  // Ground truth: the unconstrained build.
  PushdownProgram whole(&*bound);
  ASSERT_FALSE(whole.hybrid_join_engaged());
  std::vector<std::byte> whole_out;
  auto whole_session = db_.runtime()->RunSession(whole, 0, &whole_out);
  ASSERT_TRUE(whole_session.ok());
  db_.ResetForColdRun();

  // A budget far below the ~2.4 KiB estimated table forces partitions
  // to spill to flash and resolve in extra passes.
  HybridJoinConfig spill;
  spill.budget_bytes = 1024;
  PushdownProgram program(&*bound, nullptr, KernelMode::kVectorized,
                          spill, db_.device().page_size());
  ASSERT_TRUE(program.hybrid_join_engaged());
  std::vector<std::byte> out;
  auto session = db_.runtime()->RunSession(program, 0, &out);
  ASSERT_TRUE(session.ok());

  const HybridJoinStats stats = program.hybrid_stats();
  EXPECT_GT(stats.partitions_spilled, 0u);
  EXPECT_GT(stats.build_rows_spilled, 0u);
  EXPECT_GT(stats.spill_pages_written, 0u);
  // Every spilled page is read back at least once during resolution
  // (hot-key promotion re-scans build files on top of that).
  EXPECT_GE(stats.spill_pages_read, stats.spill_pages_written);
  EXPECT_GE(stats.passes, 2u);
  // Spilling is invisible to semantics: identical result bytes and
  // identical end-of-query operation totals.
  EXPECT_EQ(out, whole_out);
  EXPECT_EQ(program.counts().tuples, whole.counts().tuples);
  EXPECT_EQ(program.counts().probes, whole.counts().probes);
  EXPECT_EQ(program.counts().hash_inserts, whole.counts().hash_inserts);
  EXPECT_EQ(program.counts().eval.column_reads,
            whole.counts().eval.column_reads);
  EXPECT_EQ(program.counts().output_bytes, whole.counts().output_bytes);
  // The session released its flash extents and stayed within the DRAM
  // grant it declared.
  EXPECT_EQ(db_.ssd()->spill_pages_held(), 0u);
  EXPECT_LE(program.dram_peak_bytes(), program.DramBytesRequired());
  // The session-level spill counters surfaced the same page traffic.
  EXPECT_EQ(session->spill_pages_written, stats.spill_pages_written);
  EXPECT_EQ(session->spill_pages_read, stats.spill_pages_read);
}

TEST_F(PushdownProgramTest, DramEstimateCapsHybridResidency) {
  const auto spec = tpch::JoinQuerySpec("S", "R", 0.5);
  auto bound = Bind(spec, db_.catalog());
  ASSERT_TRUE(bound.ok());
  // Unconstrained grant grows with the inner table; the hybrid grant is
  // pinned near the budget instead.
  PushdownProgram whole(&*bound);
  HybridJoinConfig spill;
  spill.budget_bytes = 1024;
  PushdownProgram hybrid(&*bound, nullptr, KernelMode::kVectorized, spill,
                         db_.device().page_size());
  // Same spec, two modes: the hybrid grant swaps the full table term
  // for budget + spill buffers + ordered staging. Both must at least
  // cover the streaming floor.
  EXPECT_GE(whole.DramBytesRequired(), 2u * 1024 * 1024);
  EXPECT_GE(hybrid.DramBytesRequired(), 2u * 1024 * 1024);
  // And an enormous budget disengages the hybrid path entirely.
  HybridJoinConfig roomy;
  roomy.budget_bytes = 1ull << 30;
  PushdownProgram relaxed(&*bound, nullptr, KernelMode::kVectorized,
                          roomy, db_.device().page_size());
  EXPECT_FALSE(relaxed.hybrid_join_engaged());
}

TEST_F(PushdownProgramTest, ZoneMapPruningShrinksExtents) {
  ASSERT_TRUE(db_.BuildZoneMap("S").ok());
  db_.ResetForColdRun();
  // Clustered predicate on Col_1 (= row+1): first 10% of pages.
  QuerySpec spec;
  spec.name = "pruned";
  spec.table = "S";
  spec.predicate = ex::Lt(ex::Col(0), ex::Lit(2000));
  spec.aggregates.push_back({AggSpec::Fn::kCount, nullptr, "c"});
  auto bound = Bind(spec, db_.catalog());
  ASSERT_TRUE(bound.ok());

  PushdownProgram pruned(&*bound, db_.zone_map("S"));
  const auto extents = pruned.InputExtents();
  std::uint64_t pages = 0;
  for (const auto& extent : extents) pages += extent.count;
  EXPECT_LT(pages, bound->outer->page_count / 5);
  EXPECT_EQ(pruned.pages_skipped(), bound->outer->page_count - pages);

  // And the pruned session still returns the exact count.
  std::vector<std::byte> output;
  auto session = db_.runtime()->RunSession(pruned, 0, &output);
  ASSERT_TRUE(session.ok());
  ASSERT_EQ(pruned.agg_state().size(), 1u);
  EXPECT_EQ(pruned.agg_state()[0], 1999);
}

TEST_F(PushdownProgramTest, ExtentsCoalesceContiguousRuns) {
  ASSERT_TRUE(db_.BuildZoneMap("S").ok());
  QuerySpec spec;
  spec.name = "range";
  spec.table = "S";
  // A middle slice of the clustered key: one contiguous page run.
  std::vector<ex::ExprPtr> conjuncts;
  conjuncts.push_back(ex::Ge(ex::Col(0), ex::Lit(8000)));
  conjuncts.push_back(ex::Lt(ex::Col(0), ex::Lit(12000)));
  spec.predicate = ex::And(std::move(conjuncts));
  spec.aggregates.push_back({AggSpec::Fn::kCount, nullptr, "c"});
  auto bound = Bind(spec, db_.catalog());
  ASSERT_TRUE(bound.ok());
  PushdownProgram program(&*bound, db_.zone_map("S"));
  const auto extents = program.InputExtents();
  ASSERT_EQ(extents.size(), 1u);  // one coalesced run
  EXPECT_GT(extents[0].count, 0u);
  EXPECT_LT(extents[0].count, bound->outer->page_count);
}

}  // namespace
}  // namespace smartssd::exec
