// Property sweep for the memory-constrained hybrid hash join: shrinking
// the resident-build grant from fully-resident down to
// every-partition-spills must leave result bytes AND end-of-query
// operation totals identical to the unconstrained join, on both page
// layouts; and a heavily skewed probe distribution must engage the
// heavy-hitter pin so the hot key stops paying the spill path.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "exec/hybrid_join.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

namespace smartssd::engine {
namespace {

// ~29 KiB estimated build table (600 rows), so a 2 KiB grant cannot hold
// even one of the four partitions and a 16 KiB grant holds some but not
// all — the sweep crosses fully-resident, partial-spill, and
// everything-spills regimes.
constexpr std::uint64_t kSRows = 4'000;
constexpr std::uint64_t kRRows = 600;
constexpr int kCols = 64;  // JoinQuerySpec projects combined index 64

std::unique_ptr<Database> MakeDb(std::uint64_t budget_bytes,
                                 storage::PageLayout layout) {
  DatabaseOptions options = DatabaseOptions::PaperSmartSsd();
  options.join_spill.budget_bytes = budget_bytes;
  auto db = std::make_unique<Database>(options);
  SMARTSSD_CHECK(
      tpch::LoadSyntheticS(*db, "S", kCols, kSRows, kRRows, layout).ok());
  SMARTSSD_CHECK(tpch::LoadSyntheticR(*db, "R", kCols, kRRows, layout).ok());
  db->ResetForColdRun();
  return db;
}

TEST(HybridJoinPropertyTest, GrantSweepIsInvisibleToResultsAndCounts) {
  const exec::QuerySpec spec = tpch::JoinQuerySpec("S", "R", 0.5);
  for (const storage::PageLayout layout :
       {storage::PageLayout::kNsm, storage::PageLayout::kPax}) {
    SCOPED_TRACE(layout == storage::PageLayout::kNsm ? "nsm" : "pax");

    // Ground truth: the host path, then the unconstrained device build
    // (budget 0 resolves to "fits device DRAM, stay whole").
    auto ref_db = MakeDb(0, layout);
    QueryExecutor ref_exec(ref_db.get());
    auto host = ref_exec.Execute(spec, ExecutionTarget::kHost, 0);
    ASSERT_TRUE(host.ok()) << host.status().ToString();
    ref_db->ResetForColdRun();
    auto whole = ref_exec.Execute(spec, ExecutionTarget::kSmartSsd, 0);
    ASSERT_TRUE(whole.ok());
    ASSERT_EQ(whole->rows, host->rows);
    ASSERT_EQ(whole->stats.join_spill.partitions_spilled, 0u);

    for (const std::uint64_t budget :
         {std::uint64_t{1} << 20, std::uint64_t{16} * 1024,
          std::uint64_t{6} * 1024, std::uint64_t{2} * 1024}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      auto db = MakeDb(budget, layout);
      QueryExecutor executor(db.get());
      auto got = executor.Execute(spec, ExecutionTarget::kSmartSsd, 0);
      ASSERT_TRUE(got.ok()) << got.status().ToString();

      // Byte-identical output and identical operation totals: spilling
      // is charged as I/O and cycles, never as logical work.
      EXPECT_EQ(got->rows, host->rows);
      EXPECT_EQ(got->agg_values, host->agg_values);
      EXPECT_EQ(got->stats.counts.tuples, whole->stats.counts.tuples);
      EXPECT_EQ(got->stats.counts.probes, whole->stats.counts.probes);
      EXPECT_EQ(got->stats.counts.hash_inserts,
                whole->stats.counts.hash_inserts);
      EXPECT_EQ(got->stats.counts.eval.column_reads,
                whole->stats.counts.eval.column_reads);
      EXPECT_EQ(got->stats.output_bytes, whole->stats.output_bytes);

      const exec::HybridJoinStats& js = got->stats.join_spill;
      if (budget >= (std::uint64_t{1} << 20)) {
        // The whole table fits the grant: no spill machinery at all.
        EXPECT_EQ(js.partitions_spilled, 0u);
        EXPECT_EQ(js.spill_pages_written, 0u);
      } else {
        EXPECT_GT(js.partitions_spilled, 0u);
        EXPECT_GE(js.passes, 2u);
        // Every written page is read back at least once (resolve);
        // hot-key promotion may re-scan build files on top of that.
        EXPECT_GE(js.spill_pages_read, js.spill_pages_written);
      }
      if (budget == std::uint64_t{2} * 1024) {
        // Below one partition's footprint: every partition spills and
        // every build row takes the flash round-trip.
        EXPECT_EQ(js.partitions_spilled, exec::HybridJoin::kFanout);
        EXPECT_EQ(js.build_rows_spilled, kRRows);
      }
      // The spill extents were trimmed back at session close.
      EXPECT_EQ(db->ssd()->spill_pages_held(), 0u);
    }
  }
}

TEST(HybridJoinPropertyTest, SkewedProbesPinTheHeavyHitter) {
  DatabaseOptions options = DatabaseOptions::PaperSmartSsd();
  options.join_spill.budget_bytes = 2 * 1024;  // everything spills
  Database db(options);
  SMARTSSD_CHECK(tpch::LoadSyntheticR(db, "R", kCols, kRRows,
                                      storage::PageLayout::kNsm)
                     .ok());
  // S with a hot foreign key: every even row references R.Col_1 == 1, so
  // one key carries half of all probes.
  auto rng = std::make_shared<Random>(917);
  SMARTSSD_CHECK(
      db.LoadTable("S_skew", tpch::SyntheticSchema(kCols),
                   storage::PageLayout::kNsm, kSRows,
                   [rng](std::uint64_t row, storage::TupleWriter& w) {
                     w.SetInt32(0, static_cast<std::int32_t>(row + 1));
                     w.SetInt32(1, row % 2 == 0
                                       ? 1
                                       : static_cast<std::int32_t>(
                                             rng->Uniform(kRRows) + 1));
                     w.SetInt32(2, static_cast<std::int32_t>(rng->Uniform(
                                       tpch::kSelectivityDomain)));
                     for (int c = 3; c < kCols; ++c) {
                       w.SetInt32(c, static_cast<std::int32_t>(
                                         rng->Uniform(1 << 30)));
                     }
                   })
          .ok());
  db.ResetForColdRun();

  const exec::QuerySpec spec = tpch::JoinQuerySpec("S_skew", "R", 1.0);
  QueryExecutor executor(&db);
  auto host = executor.Execute(spec, ExecutionTarget::kHost, 0);
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  db.ResetForColdRun();
  auto smart = executor.Execute(spec, ExecutionTarget::kSmartSsd, 0);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();

  EXPECT_EQ(smart->rows, host->rows);
  const exec::HybridJoinStats& js = smart->stats.join_spill;
  EXPECT_GT(js.partitions_spilled, 0u);
  // The sketch crossed its threshold on the hot key, pinned its build
  // row resident, and served the bulk of the skewed probes from the pin
  // instead of deferring them to the spill files.
  EXPECT_GE(js.hot_keys_pinned, 1u);
  EXPECT_GT(js.hot_hits, 1'000u);
  EXPECT_LT(js.probe_rows_spilled, kSRows * 3 / 4);
  EXPECT_EQ(db.ssd()->spill_pages_held(), 0u);
}

}  // namespace
}  // namespace smartssd::engine
