#include "tpch/tpch_gen.h"

#include <memory>
#include <vector>

#include "common/random.h"
#include "expr/row_view.h"
#include "storage/page_codec.h"
#include "tpch/dates.h"

namespace smartssd::tpch {

namespace {

using storage::Column;

// p_type syllables (TPC-H 4.2.2.13). 'PROMO' leads 1/6 of the types,
// which is what Q14's promo_revenue numerator selects on.
constexpr const char* kTypes1[] = {"STANDARD", "SMALL",   "MEDIUM",
                                   "LARGE",    "ECONOMY", "PROMO"};
constexpr const char* kTypes2[] = {"ANODIZED", "BURNISHED", "PLATED",
                                   "POLISHED", "BRUSHED"};
constexpr const char* kTypes3[] = {"TIN", "NICKEL", "BRASS", "STEEL",
                                   "COPPER"};
constexpr const char* kShipModes[] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                      "TRUCK",   "MAIL", "FOB"};
constexpr const char* kShipInstruct[] = {"DELIVER IN PERSON",
                                         "COLLECT COD", "NONE",
                                         "TAKE BACK RETURN"};
constexpr const char* kContainers[] = {"SM CASE", "SM BOX", "MED BAG",
                                       "LG JAR",  "WRAP",   "JUMBO PKG"};

// TPC-H part retail price in cents (4.2.3): a deterministic function of
// the part key.
std::int64_t RetailPriceCents(std::int64_t partkey) {
  return 90000 + (partkey / 10) % 20001 + 100 * (partkey % 1000);
}

std::string MakeTypeString(Random& rng) {
  std::string type = kTypes1[rng.Uniform(6)];
  type += ' ';
  type += kTypes2[rng.Uniform(5)];
  type += ' ';
  type += kTypes3[rng.Uniform(5)];
  return type;
}

}  // namespace

storage::Schema LineitemSchema() {
  auto schema = storage::Schema::Create({
      Column::Int64("l_orderkey"),
      Column::Int32("l_partkey"),
      Column::Int32("l_suppkey"),
      Column::Int32("l_linenumber"),
      Column::Int32("l_quantity"),
      Column::Int64("l_extendedprice"),
      Column::Int32("l_discount"),
      Column::Int32("l_tax"),
      Column::FixedChar("l_returnflag", 1),
      Column::FixedChar("l_linestatus", 1),
      Column::Int32("l_shipdate"),
      Column::Int32("l_commitdate"),
      Column::Int32("l_receiptdate"),
      Column::FixedChar("l_shipinstruct", 25),
      Column::FixedChar("l_shipmode", 10),
      Column::FixedChar("l_comment", 44),
  });
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

storage::Schema PartSchema() {
  auto schema = storage::Schema::Create({
      Column::Int32("p_partkey"),
      Column::FixedChar("p_name", 55),
      Column::FixedChar("p_mfgr", 25),
      Column::FixedChar("p_brand", 10),
      Column::FixedChar("p_type", 25),
      Column::Int32("p_size"),
      Column::FixedChar("p_container", 10),
      Column::Int64("p_retailprice"),
      Column::FixedChar("p_comment", 23),
  });
  SMARTSSD_CHECK(schema.ok());
  return std::move(schema).value();
}

Result<storage::TableInfo> LoadLineitem(engine::Database& db,
                                        std::string name,
                                        double scale_factor,
                                        storage::PageLayout layout,
                                        std::uint64_t seed) {
  const std::uint64_t rows = LineitemRows(scale_factor);
  const std::uint64_t parts = PartRows(scale_factor);
  auto rng = std::make_shared<Random>(seed);
  auto gen = [rng, parts](std::uint64_t row, storage::TupleWriter& w) {
    Random& r = *rng;
    // ~4 lineitems per order on average; line numbers cycle 1..7.
    w.SetInt64(kLOrderKey, static_cast<std::int64_t>(row / 4 + 1));
    const std::int64_t partkey =
        static_cast<std::int64_t>(r.Uniform(parts == 0 ? 1 : parts)) + 1;
    w.SetInt32(kLPartKey, static_cast<std::int32_t>(partkey));
    w.SetInt32(kLSuppKey, static_cast<std::int32_t>(r.Uniform(10000) + 1));
    w.SetInt32(kLLineNumber, static_cast<std::int32_t>(row % 7 + 1));
    const std::int32_t quantity =
        static_cast<std::int32_t>(r.Uniform(50) + 1);
    w.SetInt32(kLQuantity, quantity);
    w.SetInt64(kLExtendedPrice, quantity * RetailPriceCents(partkey));
    // discount 0.00..0.10 and tax 0.00..0.08, scaled by 100.
    w.SetInt32(kLDiscount, static_cast<std::int32_t>(r.Uniform(11)));
    w.SetInt32(kLTax, static_cast<std::int32_t>(r.Uniform(9)));
    const std::int32_t shipdate = static_cast<std::int32_t>(
        r.UniformInt(kMinShipDate, kMaxShipDate));
    const std::int32_t receiptdate =
        shipdate + static_cast<std::int32_t>(r.Uniform(30)) + 1;
    // TPC-H 4.2.3: returnflag is R or A for items received by the
    // "current date" (1995-06-17), N afterwards; linestatus is F/O by
    // ship date. This correlation is what gives Q1 its classic four
    // groups.
    const std::int32_t current_date = DateToDays(1995, 6, 17);
    if (receiptdate <= current_date) {
      w.SetChar(kLReturnFlag, r.Uniform(2) == 0 ? "R" : "A");
    } else {
      w.SetChar(kLReturnFlag, "N");
    }
    w.SetChar(kLLineStatus, shipdate > current_date ? "O" : "F");
    w.SetInt32(kLShipDate, shipdate);
    w.SetInt32(kLCommitDate,
               shipdate + static_cast<std::int32_t>(r.Uniform(60)) - 30);
    w.SetInt32(kLReceiptDate, receiptdate);
    w.SetChar(kLShipInstruct, kShipInstruct[r.Uniform(4)]);
    w.SetChar(kLShipMode, kShipModes[r.Uniform(7)]);
    w.SetChar(kLComment, "synthetic lineitem comment text");
  };
  return db.LoadTable(std::move(name), LineitemSchema(), layout, rows, gen);
}

Result<storage::TableInfo> LoadPart(engine::Database& db, std::string name,
                                    double scale_factor,
                                    storage::PageLayout layout,
                                    std::uint64_t seed) {
  const std::uint64_t rows = PartRows(scale_factor);
  auto rng = std::make_shared<Random>(seed);
  auto gen = [rng](std::uint64_t row, storage::TupleWriter& w) {
    Random& r = *rng;
    const std::int64_t partkey = static_cast<std::int64_t>(row) + 1;
    w.SetInt32(kPPartKey, static_cast<std::int32_t>(partkey));
    w.SetChar(kPName, "part name " + std::to_string(partkey));
    w.SetChar(kPMfgr,
              "Manufacturer#" + std::to_string(r.Uniform(5) + 1));
    w.SetChar(kPBrand, "Brand#" + std::to_string(r.Uniform(5) + 1) +
                           std::to_string(r.Uniform(5) + 1));
    w.SetChar(kPType, MakeTypeString(r));
    w.SetInt32(kPSize, static_cast<std::int32_t>(r.Uniform(50) + 1));
    w.SetChar(kPContainer, kContainers[r.Uniform(6)]);
    w.SetInt64(kPRetailPrice, RetailPriceCents(partkey));
    w.SetChar(kPComment, "synthetic part");
  };
  return db.LoadTable(std::move(name), PartSchema(), layout, rows, gen);
}

Status LoadLineitemFleet(engine::Fleet& fleet, const std::string& name,
                         double scale_factor, storage::PageLayout layout,
                         std::uint64_t seed) {
  const storage::Schema schema = LineitemSchema();
  const std::uint64_t rows = LineitemRows(scale_factor);
  const std::uint32_t tuple_size = schema.tuple_size();
  auto buffer =
      std::make_shared<std::vector<std::byte>>(rows * tuple_size);
  {
    engine::Database scratch(engine::DatabaseOptions::PaperSmartSsd());
    SMARTSSD_ASSIGN_OR_RETURN(
        storage::TableInfo info,
        LoadLineitem(scratch, name, scale_factor,
                     storage::PageLayout::kNsm, seed));
    std::vector<std::byte> page(scratch.device().page_size());
    std::uint64_t row = 0;
    for (std::uint64_t p = 0; p < info.page_count; ++p) {
      SMARTSSD_RETURN_IF_ERROR(
          scratch.device().ReadPages(info.first_lpn + p, 1, page, 0)
              .status());
      SMARTSSD_ASSIGN_OR_RETURN(
          const storage::PageRows page_rows,
          storage::PageRows::Open(&schema, info.layout, page));
      expr::PageRowView view(&page_rows);
      for (std::uint16_t i = 0; i < page_rows.tuple_count(); ++i, ++row) {
        view.Reset(i);
        view.CopyRecord(buffer->data() + row * tuple_size);
      }
    }
    if (row != rows) {
      return InternalError("lineitem materialization lost rows");
    }
  }
  storage::RowGenerator raw_gen =
      [buffer, tuple_size](std::uint64_t row,
                           storage::TupleWriter& writer) {
        writer.CopyFrom({buffer->data() + row * tuple_size, tuple_size});
      };
  return fleet.LoadPartitionedTable(name, schema, layout, rows, raw_gen);
}

}  // namespace smartssd::tpch
