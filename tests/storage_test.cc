#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "storage/nsm_page.h"
#include "storage/page_codec.h"
#include "storage/pax_page.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace smartssd::storage {
namespace {

Schema TestSchema() {
  auto schema = Schema::Create({
      Column::Int64("id"),
      Column::Int32("qty"),
      Column::FixedChar("flag", 1),
      Column::FixedChar("name", 11),
      Column::Int32("date"),
  });
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

std::vector<std::byte> MakeTuple(const Schema& schema, std::int64_t id) {
  std::vector<std::byte> tuple(schema.tuple_size());
  TupleWriter writer(&schema, tuple);
  writer.SetInt64(0, id);
  writer.SetInt32(1, static_cast<std::int32_t>(id * 3));
  writer.SetChar(2, id % 2 == 0 ? "E" : "O");
  writer.SetChar(3, "row" + std::to_string(id));
  writer.SetInt32(4, static_cast<std::int32_t>(1000 + id));
  return tuple;
}

// --- Schema ---

TEST(SchemaTest, OffsetsAndTupleSize) {
  const Schema schema = TestSchema();
  EXPECT_EQ(schema.num_columns(), 5);
  EXPECT_EQ(schema.offset(0), 0u);
  EXPECT_EQ(schema.offset(1), 8u);
  EXPECT_EQ(schema.offset(2), 12u);
  EXPECT_EQ(schema.offset(3), 13u);
  EXPECT_EQ(schema.offset(4), 24u);
  EXPECT_EQ(schema.tuple_size(), 28u);
}

TEST(SchemaTest, FindColumn) {
  const Schema schema = TestSchema();
  EXPECT_EQ(schema.FindColumn("qty").value(), 1);
  EXPECT_EQ(schema.FindColumn("date").value(), 4);
  EXPECT_FALSE(schema.FindColumn("nope").ok());
}

TEST(SchemaTest, RejectsBadSchemas) {
  EXPECT_FALSE(Schema::Create({}).ok());
  EXPECT_FALSE(Schema::Create({Column{"", ColumnType::kInt32, 4}}).ok());
  EXPECT_FALSE(
      Schema::Create({Column::Int32("a"), Column::Int32("a")}).ok());
  EXPECT_FALSE(
      Schema::Create({Column{"bad", ColumnType::kInt32, 8}}).ok());
  EXPECT_FALSE(
      Schema::Create({Column{"bad", ColumnType::kInt64, 4}}).ok());
  EXPECT_FALSE(
      Schema::Create({Column{"bad", ColumnType::kFixedChar, 0}}).ok());
}

// --- Tuple reader/writer ---

TEST(TupleTest, RoundTrip) {
  const Schema schema = TestSchema();
  const auto tuple = MakeTuple(schema, 42);
  const TupleReader reader(&schema, tuple.data());
  EXPECT_EQ(reader.GetInt64(0), 42);
  EXPECT_EQ(reader.GetInt32(1), 126);
  EXPECT_EQ(reader.GetChar(2), "E");
  EXPECT_EQ(reader.GetChar(3), "row42      ");  // space padded to 11
  EXPECT_EQ(reader.GetInt32(4), 1042);
}

TEST(TupleTest, CharTruncatesToWidth) {
  const Schema schema = TestSchema();
  std::vector<std::byte> tuple(schema.tuple_size());
  TupleWriter writer(&schema, tuple);
  writer.SetChar(3, "abcdefghijklmnop");
  const TupleReader reader(&schema, tuple.data());
  EXPECT_EQ(reader.GetChar(3), "abcdefghijk");
}

// --- Page codec: PageBuilder and PageRows over both layouts ---

class PageCodecTest : public ::testing::TestWithParam<PageLayout> {};

TEST_P(PageCodecTest, RoundTripAllTuples) {
  const Schema schema = TestSchema();
  const std::uint32_t page_size = 1024;
  PageBuilder builder(&schema, GetParam(), page_size);
  std::vector<std::vector<std::byte>> tuples;
  while (builder.Append(MakeTuple(schema, std::ssize(tuples)))) {
    tuples.push_back(MakeTuple(schema, std::ssize(tuples)));
  }
  ASSERT_GT(tuples.size(), 10u);  // a 1 KiB page holds >10 28-byte tuples
  EXPECT_EQ(tuples.size(), PageCapacity(schema, GetParam(), page_size));
  EXPECT_EQ(builder.tuple_count(), tuples.size());
  EXPECT_EQ(builder.image().size(), page_size);

  auto rows = PageRows::Open(&schema, GetParam(), builder.image());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->tuple_count(), tuples.size());
  for (std::uint16_t i = 0; i < rows->tuple_count(); ++i) {
    const PageRows::Row row = rows->row(i);
    // Every column's bytes are the NSM record's, in either layout.
    for (int c = 0; c < schema.num_columns(); ++c) {
      EXPECT_EQ(std::memcmp(rows->column(row, c),
                            tuples[i].data() + schema.offset(c),
                            schema.column(c).width),
                0)
          << "row " << i << " column " << c;
    }
    EXPECT_EQ(DecodeInt(schema.column(0), rows->column(row, 0)), i);
    EXPECT_EQ(DecodeInt(schema.column(1), rows->column(row, 1)), 3 * i);
  }

  builder.Reset();
  EXPECT_EQ(builder.tuple_count(), 0);
  auto empty = PageRows::Open(&schema, GetParam(), builder.image());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->tuple_count(), 0);
}

// PageColumns hands out the same bytes as PageRows, in either layout;
// on an NSM page the record pointers come from the walk that validates
// the slots, into the caller's buffer.
TEST_P(PageCodecTest, ColumnsMatchRows) {
  const Schema schema = TestSchema();
  PageBuilder builder(&schema, GetParam(), 1024);
  for (int id = 0; builder.Append(MakeTuple(schema, id)); ++id) {
  }
  auto rows = PageRows::Open(&schema, GetParam(), builder.image());
  ASSERT_TRUE(rows.ok());
  std::vector<const std::byte*> records;
  auto columns =
      PageColumns::Open(&schema, GetParam(), builder.image(), &records);
  ASSERT_TRUE(columns.ok());
  ASSERT_EQ(columns->tuple_count(), rows->tuple_count());
  EXPECT_EQ(records.size(),
            GetParam() == PageLayout::kNsm ? rows->tuple_count() : 0u);
  for (int c = 0; c < schema.num_columns(); ++c) {
    const ColumnAddress column = columns->column(c);
    for (std::uint16_t i = 0; i < rows->tuple_count(); ++i) {
      EXPECT_EQ(column.at(i), rows->column(rows->row(i), c))
          << "row " << i << " column " << c;
    }
  }
}

TEST_P(PageCodecTest, ZeroPageReadsAsEmpty) {
  const Schema schema = TestSchema();
  const std::vector<std::byte> zeros(1024, std::byte{0});
  auto rows = PageRows::Open(&schema, GetParam(), zeros);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->tuple_count(), 0);
}

TEST_P(PageCodecTest, BadMagicIsCorruption) {
  const Schema schema = TestSchema();
  const std::vector<std::byte> garbage(1024, std::byte{0xEE});
  auto rows = PageRows::Open(&schema, GetParam(), garbage);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kCorruption);

  // A page of the other layout carries the other magic.
  const PageLayout other =
      GetParam() == PageLayout::kNsm ? PageLayout::kPax : PageLayout::kNsm;
  PageBuilder builder(&schema, other, 1024);
  ASSERT_TRUE(builder.Append(MakeTuple(schema, 1)));
  auto wrong = PageRows::Open(&schema, GetParam(), builder.image());
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kCorruption);
}

INSTANTIATE_TEST_SUITE_P(Layouts, PageCodecTest,
                         ::testing::Values(PageLayout::kNsm,
                                           PageLayout::kPax),
                         [](const auto& info) {
                           return std::string(PageLayoutName(info.param));
                         });

// --- Layout-specific corruption and capacity details ---

TEST(NsmPageTest, CorruptTupleCountDetected) {
  const Schema schema = TestSchema();
  NsmPageBuilder builder(&schema, 1024);
  ASSERT_TRUE(builder.Append(MakeTuple(schema, 1)));
  std::vector<std::byte> image(builder.image().begin(),
                               builder.image().end());
  const std::uint16_t bogus = 999;
  std::memcpy(image.data() + 2, &bogus, 2);
  auto reader = NsmPageReader::Open(&schema, image);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(NsmPageTest, CorruptSlotOffsetDetected) {
  const Schema schema = TestSchema();
  NsmPageBuilder builder(&schema, 1024);
  ASSERT_TRUE(builder.Append(MakeTuple(schema, 1)));
  std::vector<std::byte> image(builder.image().begin(),
                               builder.image().end());
  const std::uint16_t bogus_offset = 1020;  // points into the slot dir
  std::memcpy(image.data() + 1022, &bogus_offset, 2);
  auto reader = NsmPageReader::Open(&schema, image);
  ASSERT_FALSE(reader.ok());
}

// The record gather shares the walk that validates the slots, so both
// corrupt images above fail PageColumns::Open as well.
TEST(NsmPageTest, PageColumnsRejectsCorruptImages) {
  const Schema schema = TestSchema();
  NsmPageBuilder builder(&schema, 1024);
  ASSERT_TRUE(builder.Append(MakeTuple(schema, 1)));
  auto corrupt = [&](std::size_t at, std::uint16_t value) {
    std::vector<std::byte> image(builder.image().begin(),
                                 builder.image().end());
    std::memcpy(image.data() + at, &value, 2);
    return image;
  };
  const std::vector<std::byte> bad_count = corrupt(2, 999);
  const std::vector<std::byte> bad_slot = corrupt(1022, 1020);
  std::vector<const std::byte*> records;
  for (const auto* image : {&bad_count, &bad_slot}) {
    auto columns =
        PageColumns::Open(&schema, PageLayout::kNsm, *image, &records);
    ASSERT_FALSE(columns.ok());
    EXPECT_EQ(columns.status().code(), StatusCode::kCorruption);
  }
}

TEST(NsmPageTest, CapacityAccountsForSlots) {
  const Schema schema = TestSchema();  // 28-byte tuples
  // (1024 - 8) / (28 + 2) = 33.
  EXPECT_EQ(NsmCapacity(schema, 1024), 33u);
  NsmPageBuilder builder(&schema, 1024);
  std::uint32_t appended = 0;
  while (builder.Append(MakeTuple(schema, appended))) ++appended;
  EXPECT_EQ(appended, 33u);
}

TEST(PaxPageTest, CapacityAccountsForDirectory) {
  const Schema schema = TestSchema();
  // (1024 - 8 - 2*5) / 28 = 35.
  EXPECT_EQ(PaxCapacity(schema, 1024), 35u);
  PaxPageBuilder builder(&schema, 1024);
  std::uint32_t appended = 0;
  while (builder.Append(MakeTuple(schema, appended))) ++appended;
  EXPECT_EQ(appended, 35u);
}

TEST(PaxPageTest, ColumnCountMismatchDetected) {
  const Schema schema = TestSchema();
  PaxPageBuilder builder(&schema, 1024);
  ASSERT_TRUE(builder.Append(MakeTuple(schema, 1)));
  auto other = Schema::Create({Column::Int32("only")});
  auto reader = PaxPageReader::Open(&*other, builder.image());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(PaxPageTest, MinipagesAreContiguousPerColumn) {
  const Schema schema = TestSchema();
  PaxPageBuilder builder(&schema, 1024);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(builder.Append(MakeTuple(schema, i)));
  }
  auto reader = PaxPageReader::Open(&schema, builder.image());
  ASSERT_TRUE(reader.ok());
  // Column 1 (int32): consecutive rows are 4 bytes apart.
  const std::byte* base = reader->column_data(1);
  for (std::uint16_t i = 0; i < 10; ++i) {
    EXPECT_EQ(reader->value(i, 1), base + 4 * i);
  }
}

TEST(PaxPageTest, InPlaceDirectoryMatchesBuilderLayout) {
  // The reader keeps no copy of the directory: each column_data() reads
  // its entry from the page header. The offsets must be the builder's:
  // minipages packed after the header, each capacity * width bytes.
  const Schema schema = TestSchema();
  PaxPageBuilder builder(&schema, 1024);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(builder.Append(MakeTuple(schema, i)));
  }
  auto reader = PaxPageReader::Open(&schema, builder.image());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->tuple_count(), 7);
  const std::byte* page = builder.image().data();
  std::uint32_t offset = 8 + 2 * static_cast<std::uint32_t>(
                                     schema.num_columns());
  for (int c = 0; c < schema.num_columns(); ++c) {
    EXPECT_EQ(reader->column_data(c), page + offset) << "column " << c;
    std::uint16_t entry;
    std::memcpy(&entry, page + 8 + 2 * c, sizeof(entry));
    EXPECT_EQ(entry, offset) << "column " << c;
    offset += builder.capacity() * schema.column(c).width;
  }

  // A zeroed page of any size still opens with no rows.
  for (const std::size_t size : {8u, 1024u}) {
    const std::vector<std::byte> zeros(size, std::byte{0});
    auto empty = PaxPageReader::Open(&schema, zeros);
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty->tuple_count(), 0);
  }
}

TEST(PaxPageTest, MinipageOutsideThePageIsCorruption) {
  const Schema schema = TestSchema();
  PaxPageBuilder builder(&schema, 1024);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(builder.Append(MakeTuple(schema, i)));
  }
  // Point the last column's minipage so its 5 rows run past the end,
  // then into the directory itself: Open must still check every entry.
  const int last = schema.num_columns() - 1;
  for (const std::uint16_t bogus : {std::uint16_t{1020}, std::uint16_t{4}}) {
    std::vector<std::byte> image(builder.image().begin(),
                                 builder.image().end());
    std::memcpy(image.data() + 8 + 2 * last, &bogus, sizeof(bogus));
    auto reader = PaxPageReader::Open(&schema, image);
    ASSERT_FALSE(reader.ok()) << bogus;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption) << bogus;
  }
}

// Property: random schemas and tuples round-trip through both layouts.
TEST(PageCodecPropertyTest, RandomSchemasRoundTrip) {
  Random rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Column> columns;
    const int ncols = static_cast<int>(rng.Uniform(12)) + 1;
    for (int c = 0; c < ncols; ++c) {
      switch (rng.Uniform(3)) {
        case 0:
          columns.push_back(Column::Int32("c" + std::to_string(c)));
          break;
        case 1:
          columns.push_back(Column::Int64("c" + std::to_string(c)));
          break;
        default:
          columns.push_back(Column::FixedChar(
              "c" + std::to_string(c),
              static_cast<std::uint32_t>(rng.Uniform(20)) + 1));
      }
    }
    auto schema_or = Schema::Create(std::move(columns));
    ASSERT_TRUE(schema_or.ok());
    const Schema& schema = *schema_or;

    std::vector<std::byte> tuple(schema.tuple_size());
    for (auto& b : tuple) {
      b = static_cast<std::byte>(rng.Uniform(256));
    }

    for (const PageLayout layout : {PageLayout::kNsm, PageLayout::kPax}) {
      PageBuilder builder(&schema, layout, 4096);
      ASSERT_TRUE(builder.Append(tuple));
      auto rows = PageRows::Open(&schema, layout, builder.image());
      ASSERT_TRUE(rows.ok());
      for (int c = 0; c < schema.num_columns(); ++c) {
        EXPECT_EQ(std::memcmp(rows->column(rows->row(0), c),
                              tuple.data() + schema.offset(c),
                              schema.column(c).width),
                  0)
            << PageLayoutName(layout) << " column " << c;
      }
    }
  }
}

}  // namespace
}  // namespace smartssd::storage
