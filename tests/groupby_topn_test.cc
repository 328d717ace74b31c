// Tests for the extension operators: grouped aggregation (GROUP BY) and
// ORDER BY/LIMIT (top-N), on both execution paths.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "exec/group_table.h"
#include "expr/row_view.h"
#include "storage/tuple.h"
#include "tpch/dates.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

namespace smartssd {
namespace {

namespace ex = ::smartssd::expr;
using engine::Database;
using engine::DatabaseOptions;
using engine::ExecutionTarget;
using engine::QueryExecutor;

class GroupByTopNTest : public ::testing::Test {
 protected:
  GroupByTopNTest() : db_(DatabaseOptions::PaperSmartSsd()) {
    SMARTSSD_CHECK(tpch::LoadLineitem(db_, "lineitem", 0.003,
                                      storage::PageLayout::kPax)
                       .ok());
    SMARTSSD_CHECK(tpch::LoadSyntheticS(db_, "S", 16, 30'000, 100,
                                        storage::PageLayout::kPax)
                       .ok());
  }

  engine::QueryResult Run(const exec::QuerySpec& spec,
                          ExecutionTarget target) {
    db_.ResetForColdRun();
    QueryExecutor executor(&db_);
    auto result = executor.Execute(spec, target);
    SMARTSSD_CHECK(result.ok());
    return std::move(result).value();
  }

  Database db_;
};

// Reference Q1 computed straight off the pages.
struct Q1Group {
  std::int64_t sum_qty = 0;
  std::int64_t sum_base = 0;
  std::int64_t sum_disc = 0;
  std::int64_t sum_charge = 0;
  std::int64_t count = 0;
};

std::map<std::string, Q1Group> ReferenceQ1(Database& db) {
  auto info = db.catalog().GetTable("lineitem");
  SMARTSSD_CHECK(info.ok());
  std::map<std::string, Q1Group> groups;
  const auto& schema = (*info)->schema;
  std::vector<std::byte> page(db.device().page_size());
  for (std::uint64_t p = 0; p < (*info)->page_count; ++p) {
    SMARTSSD_CHECK(
        db.device().ReadPages((*info)->first_lpn + p, 1, page, 0).ok());
    auto rows = storage::PageRows::Open(&schema, (*info)->layout, page);
    SMARTSSD_CHECK(rows.ok());
    expr::PageRowView view(&*rows);
    for (std::uint16_t i = 0; i < rows->tuple_count(); ++i) {
      view.Reset(i);
      const std::int32_t shipdate =
          static_cast<std::int32_t>(
              view.GetColumn(tpch::kLShipDate).AsInt());
      if (shipdate > tpch::DateToDays(1998, 9, 2)) continue;
      std::string key;
      key += view.GetColumn(tpch::kLReturnFlag).AsString();
      key += view.GetColumn(tpch::kLLineStatus).AsString();
      Q1Group& group = groups[key];
      const std::int64_t qty = view.GetColumn(tpch::kLQuantity).AsInt();
      const std::int64_t ep =
          view.GetColumn(tpch::kLExtendedPrice).AsInt();
      const std::int64_t disc = view.GetColumn(tpch::kLDiscount).AsInt();
      const std::int64_t tax = view.GetColumn(tpch::kLTax).AsInt();
      group.sum_qty += qty;
      group.sum_base += ep;
      group.sum_disc += ep * (100 - disc);
      group.sum_charge += ep * (100 - disc) * (100 + tax);
      ++group.count;
    }
  }
  return groups;
}

TEST_F(GroupByTopNTest, Q1MatchesReferenceAndBothPathsAgree) {
  const auto host = Run(tpch::Q1Spec("lineitem"), ExecutionTarget::kHost);
  const auto smart =
      Run(tpch::Q1Spec("lineitem"), ExecutionTarget::kSmartSsd);
  EXPECT_EQ(host.rows, smart.rows);

  // Output schema: key_l_returnflag(1) key_l_linestatus(1) + 5 int64.
  ASSERT_EQ(host.output_schema.num_columns(), 7);
  ASSERT_EQ(host.output_schema.tuple_size(), 42u);
  const auto reference = ReferenceQ1(db_);
  ASSERT_EQ(host.row_count(), reference.size());
  // TPC-H Q1 famously has exactly 4 groups.
  EXPECT_EQ(host.row_count(), 4u);

  const std::uint32_t width = host.output_schema.tuple_size();
  for (std::uint64_t r = 0; r < host.row_count(); ++r) {
    const std::byte* row = host.rows.data() + r * width;
    std::string key(reinterpret_cast<const char*>(row), 2);
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << "unexpected group " << key;
    std::int64_t values[5];
    std::memcpy(values, row + 2, sizeof(values));
    EXPECT_EQ(values[0], it->second.sum_qty);
    EXPECT_EQ(values[1], it->second.sum_base);
    EXPECT_EQ(values[2], it->second.sum_disc);
    EXPECT_EQ(values[3], it->second.sum_charge);
    EXPECT_EQ(values[4], it->second.count);
  }
}

TEST_F(GroupByTopNTest, GroupedRowsAreKeyOrdered) {
  const auto host = Run(tpch::Q1Spec("lineitem"), ExecutionTarget::kHost);
  const std::uint32_t width = host.output_schema.tuple_size();
  std::string prev;
  for (std::uint64_t r = 0; r < host.row_count(); ++r) {
    std::string key(
        reinterpret_cast<const char*>(host.rows.data() + r * width), 2);
    EXPECT_LT(prev, key);
    prev = key;
  }
}

TEST_F(GroupByTopNTest, Q1PushdownLosesOn2013CoresWinsWhenUpgraded) {
  // Q1 evaluates four SUM expressions + COUNT on ~98% of tuples: on the
  // paper's 3x400 MHz device the embedded CPU saturates and pushdown
  // LOSES; with Section 5's "add more hardware" (6x800 MHz) it wins.
  // Either way the device ships only 4 result rows.
  const auto host = Run(tpch::Q1Spec("lineitem"), ExecutionTarget::kHost);
  const auto smart =
      Run(tpch::Q1Spec("lineitem"), ExecutionTarget::kSmartSsd);
  EXPECT_GT(smart.stats.elapsed(), host.stats.elapsed());
  EXPECT_LT(smart.stats.bytes_over_host_link, 10'000u);

  engine::DatabaseOptions upgraded = DatabaseOptions::PaperSmartSsd();
  upgraded.ssd.embedded_cpu.cores = 6;
  upgraded.ssd.embedded_cpu.clock_hz = 800'000'000;
  Database fast_db(upgraded);
  SMARTSSD_CHECK(tpch::LoadLineitem(fast_db, "lineitem", 0.003,
                                    storage::PageLayout::kPax)
                     .ok());
  fast_db.ResetForColdRun();
  QueryExecutor executor(&fast_db);
  auto fast = executor.Execute(tpch::Q1Spec("lineitem"),
                               ExecutionTarget::kSmartSsd);
  ASSERT_TRUE(fast.ok());
  EXPECT_LT(fast->stats.elapsed(), host.stats.elapsed());
  EXPECT_EQ(fast->rows, host.rows);
}

TEST_F(GroupByTopNTest, TopNBothPathsAgreeAndAreSorted) {
  const auto spec = [] {
    return tpch::TopNQuerySpec("S", 16, 0.5, 25, /*descending=*/true);
  };
  const auto host = Run(spec(), ExecutionTarget::kHost);
  const auto smart = Run(spec(), ExecutionTarget::kSmartSsd);
  EXPECT_EQ(host.rows, smart.rows);
  ASSERT_EQ(host.row_count(), 25u);

  const std::uint32_t width = host.output_schema.tuple_size();
  std::int32_t prev = std::numeric_limits<std::int32_t>::max();
  for (std::uint64_t r = 0; r < host.row_count(); ++r) {
    std::int32_t key;
    std::memcpy(&key, host.rows.data() + r * width, 4);
    EXPECT_LE(key, prev);
    prev = key;
  }
}

TEST_F(GroupByTopNTest, TopNAscendingReturnsSmallestQualifying) {
  // Col_1 = row+1; predicate keeps ~50%; ascending top-3 must be the
  // first three qualifying row ids.
  const auto spec =
      tpch::TopNQuerySpec("S", 16, 0.5, 3, /*descending=*/false);
  const auto host = Run(spec, ExecutionTarget::kHost);
  ASSERT_EQ(host.row_count(), 3u);
  const std::uint32_t width = host.output_schema.tuple_size();
  std::int32_t first;
  std::memcpy(&first, host.rows.data(), 4);
  // With ~50% selectivity the smallest qualifying id is tiny.
  EXPECT_LE(first, 10);
  std::int32_t prev = 0;
  for (std::uint64_t r = 0; r < 3; ++r) {
    std::int32_t key;
    std::memcpy(&key, host.rows.data() + r * width, 4);
    EXPECT_GT(key, prev);
    prev = key;
  }
}

TEST_F(GroupByTopNTest, TopNLimitLargerThanResultReturnsAll) {
  const auto spec =
      tpch::TopNQuerySpec("S", 16, 0.0005, 1000, /*descending=*/true);
  const auto host = Run(spec, ExecutionTarget::kHost);
  const auto plain = Run(tpch::ScanQuerySpec("S", 16, 0.0005, false, 3),
                         ExecutionTarget::kHost);
  EXPECT_EQ(host.row_count(), plain.row_count());
  EXPECT_LT(host.row_count(), 1000u);
}

TEST_F(GroupByTopNTest, BindRejectsBadExtensions) {
  {
    exec::QuerySpec spec;  // GROUP BY without aggregates
    spec.table = "S";
    spec.group_by = {0};
    spec.projection = {0};
    EXPECT_FALSE(exec::Bind(spec, db_.catalog()).ok());
  }
  {
    exec::QuerySpec spec;  // top-N on an aggregate query
    spec.table = "S";
    spec.aggregates.push_back(
        {exec::AggSpec::Fn::kCount, nullptr, "c"});
    spec.top_n = exec::TopNSpec{.order_col = 0, .limit = 5};
    EXPECT_FALSE(exec::Bind(spec, db_.catalog()).ok());
  }
  {
    exec::QuerySpec spec;  // zero limit
    spec.table = "S";
    spec.projection = {0};
    spec.top_n = exec::TopNSpec{.order_col = 0, .limit = 0};
    EXPECT_FALSE(exec::Bind(spec, db_.catalog()).ok());
  }
  {
    exec::QuerySpec spec;  // GROUP BY column out of range
    spec.table = "S";
    spec.group_by = {99};
    spec.aggregates.push_back(
        {exec::AggSpec::Fn::kCount, nullptr, "c"});
    EXPECT_FALSE(exec::Bind(spec, db_.catalog()).ok());
  }
}

TEST_F(GroupByTopNTest, PlanPrintingMentionsExtensions) {
  const auto q1_spec = tpch::Q1Spec("lineitem");
  auto q1 = exec::Bind(q1_spec, db_.catalog());
  ASSERT_TRUE(q1.ok());
  EXPECT_NE(exec::PlanToString(*q1).find("GROUP BY"), std::string::npos);

  const auto topn_spec = tpch::TopNQuerySpec("S", 16, 0.5, 10);
  auto topn = exec::Bind(topn_spec, db_.catalog());
  ASSERT_TRUE(topn.ok());
  EXPECT_NE(exec::PlanToString(*topn).find("TopN"), std::string::npos);
}

// GroupTable picks its lookup by key width (one-word hash up to 8
// bytes, byte hash beyond). Every width must give the same groups,
// states and sorted order as a std::map over the key bytes.
TEST(GroupTableTest, KeyWidthsMatchMapReference) {
  for (const std::uint32_t width : {1u, 2u, 3u, 8u, 9u}) {
    SCOPED_TRACE(width);
    Random rng(width);
    exec::GroupTable table;
    table.Init(width, /*num_states=*/2);
    const std::int64_t init[2] = {0, 100};
    std::map<std::string, std::pair<std::int64_t, std::int64_t>> reference;
    // Few distinct values per byte, so keys repeat; a batch of keys
    // laid out at key_stride() with zero padding, as the kernel packs
    // them.
    const std::size_t stride = table.key_stride();
    constexpr std::size_t kBatch = 37;
    std::vector<std::byte> keys(kBatch * stride);
    std::vector<std::uint32_t> groups(kBatch);
    for (int round = 0; round < 40; ++round) {
      std::fill(keys.begin(), keys.end(), std::byte{0});
      for (std::size_t i = 0; i < kBatch; ++i) {
        for (std::uint32_t b = 0; b < width; ++b) {
          keys[i * stride + b] =
              static_cast<std::byte>(rng.Uniform(b % 2 == 0 ? 3 : 256));
        }
      }
      if (round % 2 == 0) {
        table.FindOrInsertBatch(keys.data(), kBatch, init, groups.data());
      } else {
        for (std::size_t i = 0; i < kBatch; ++i) {
          groups[i] = table.FindOrInsert(keys.data() + i * stride, init);
        }
      }
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::byte* key = keys.data() + i * stride;
        ASSERT_EQ(std::memcmp(table.key(groups[i]), key, width), 0);
        const std::int64_t v = static_cast<std::int64_t>(rng.Uniform(1000));
        table.states(groups[i])[0] += v;
        table.states(groups[i])[1] = std::min(table.states(groups[i])[1], v);
        auto [it, fresh] = reference.try_emplace(
            std::string(reinterpret_cast<const char*>(key), width), 0, 100);
        it->second.first += v;
        it->second.second = std::min(it->second.second, v);
      }
    }
    ASSERT_EQ(table.size(), reference.size());
    std::vector<std::uint32_t> order;
    table.SortedGroups(&order);
    std::size_t i = 0;
    for (const auto& [key, states] : reference) {
      const std::uint32_t g = order[i++];
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(table.key(g)),
                            width),
                key);
      EXPECT_EQ(table.states(g)[0], states.first);
      EXPECT_EQ(table.states(g)[1], states.second);
    }
  }
}

}  // namespace
}  // namespace smartssd
