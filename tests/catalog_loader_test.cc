#include <gtest/gtest.h>

#include <vector>

#include "ssd/ssd_device.h"
#include "storage/catalog.h"
#include "storage/page_codec.h"
#include "storage/table_loader.h"
#include "storage/tuple.h"

namespace smartssd::storage {
namespace {

Schema TwoColSchema() {
  auto schema =
      Schema::Create({Column::Int32("k"), Column::Int64("v")});
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

// --- Catalog ---

TEST(CatalogTest, AddAndGet) {
  Catalog catalog(1000);
  const Schema schema = TwoColSchema();
  ASSERT_TRUE(catalog
                  .AddTable(TableInfo{.name = "t",
                                      .schema = schema,
                                      .layout = PageLayout::kNsm,
                                      .first_lpn = 0,
                                      .page_count = 10,
                                      .tuple_count = 100,
                                      .tuples_per_page = 10})
                  .ok());
  auto info = catalog.GetTable("t");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->tuple_count, 100u);
  EXPECT_EQ((*info)->bytes(), 100u * schema.tuple_size());
  EXPECT_TRUE(catalog.HasTable("t"));
  EXPECT_FALSE(catalog.GetTable("missing").ok());
}

TEST(CatalogTest, DuplicateNameRejected) {
  Catalog catalog(1000);
  const Schema schema = TwoColSchema();
  const TableInfo info{.name = "t",
                       .schema = schema,
                       .layout = PageLayout::kNsm,
                       .first_lpn = 0,
                       .page_count = 1,
                       .tuple_count = 1,
                       .tuples_per_page = 1};
  ASSERT_TRUE(catalog.AddTable(info).ok());
  EXPECT_EQ(catalog.AddTable(info).code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, ExtentAllocatorIsBumpAndBounded) {
  Catalog catalog(100);
  EXPECT_EQ(catalog.AllocateExtent(40).value(), 0u);
  EXPECT_EQ(catalog.AllocateExtent(40).value(), 40u);
  EXPECT_EQ(catalog.pages_allocated(), 80u);
  auto overflow = catalog.AllocateExtent(21);
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(catalog.AllocateExtent(20).value(), 80u);
}

// --- Loader on a real device, both layouts ---

class TableLoaderTest : public ::testing::TestWithParam<PageLayout> {
 protected:
  TableLoaderTest() : device_(MakeConfig()), catalog_(device_.num_pages()) {}

  static ssd::SsdConfig MakeConfig() {
    ssd::SsdConfig config = ssd::SsdConfig::PaperSmartSsd();
    config.geometry.blocks_per_chip = 32;
    return config;
  }

  ssd::SsdDevice device_;
  Catalog catalog_;
};

TEST_P(TableLoaderTest, LoadsAndReadsBackEveryRow) {
  const Schema schema = TwoColSchema();
  TableLoader loader(&device_, &catalog_);
  constexpr std::uint64_t kRows = 5000;
  auto info = loader.Load("t", schema, GetParam(), kRows,
                          [](std::uint64_t row, TupleWriter& w) {
                            w.SetInt32(0, static_cast<std::int32_t>(row));
                            w.SetInt64(1, static_cast<std::int64_t>(row) *
                                              row);
                          });
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->tuple_count, kRows);
  EXPECT_EQ(info->layout, GetParam());
  const std::uint64_t expected_pages =
      (kRows + info->tuples_per_page - 1) / info->tuples_per_page;
  EXPECT_EQ(info->page_count, expected_pages);

  // Walk every page via the device and verify every row.
  std::vector<std::byte> page(device_.page_size());
  std::uint64_t row = 0;
  for (std::uint64_t p = 0; p < info->page_count; ++p) {
    ASSERT_TRUE(device_.ReadPages(info->first_lpn + p, 1, page, 0).ok());
    auto rows = PageRows::Open(&schema, GetParam(), page);
    ASSERT_TRUE(rows.ok());
    for (std::uint16_t i = 0; i < rows->tuple_count(); ++i, ++row) {
      const PageRows::Row r = rows->row(i);
      EXPECT_EQ(DecodeInt(schema.column(0), rows->column(r, 0)),
                static_cast<std::int64_t>(row));
      EXPECT_EQ(DecodeInt(schema.column(1), rows->column(r, 1)),
                static_cast<std::int64_t>(row * row));
    }
  }
  EXPECT_EQ(row, kRows);
}

TEST_P(TableLoaderTest, EmptyTableGetsOnePage) {
  const Schema schema = TwoColSchema();
  TableLoader loader(&device_, &catalog_);
  auto info = loader.Load("empty", schema, GetParam(), 0,
                          [](std::uint64_t, TupleWriter&) {});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->tuple_count, 0u);
}

TEST_P(TableLoaderTest, DuplicateTableRejected) {
  const Schema schema = TwoColSchema();
  TableLoader loader(&device_, &catalog_);
  auto gen = [](std::uint64_t, TupleWriter& w) { w.SetInt32(0, 1); };
  ASSERT_TRUE(loader.Load("t", schema, GetParam(), 1, gen).ok());
  auto again = loader.Load("t", schema, GetParam(), 1, gen);
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

INSTANTIATE_TEST_SUITE_P(Layouts, TableLoaderTest,
                         ::testing::Values(PageLayout::kNsm,
                                           PageLayout::kPax),
                         [](const auto& info) {
                           return std::string(PageLayoutName(info.param));
                         });

}  // namespace
}  // namespace smartssd::storage
