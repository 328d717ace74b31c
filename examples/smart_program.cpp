// Writing a custom in-SSD program against the raw session API
// (Section 3's OPEN/GET/CLOSE), below the query engine: a per-page
// column-statistics collector that builds zone maps (per-page min/max of
// a column) entirely inside the device and ships only the statistics to
// the host — a classic computational-storage building block.
//
//   ./build/examples/smart_program

#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "engine/database.h"
#include "smart/program.h"
#include "smart/runtime.h"
#include "storage/pax_page.h"
#include "tpch/synthetic.h"

using namespace smartssd;

namespace {

// One zone-map entry per page, as shipped over the GET channel.
struct ZoneEntry {
  std::uint64_t lpn;
  std::int32_t min_value;
  std::int32_t max_value;
};

// The device-side program. It follows the InSsdProgram lifecycle:
// OPEN grants resources, the runtime streams the declared extent through
// the internal data path, ProcessPage runs on the embedded cores, and
// the emitted ZoneEntry records flow back through polled GETs.
class ZoneMapBuilder final : public smart::InSsdProgram {
 public:
  ZoneMapBuilder(const storage::TableInfo* table, int column)
      : table_(table), column_(column) {}

  std::string_view name() const override { return "zone_map_builder"; }

  Result<SimTime> Open(smart::DeviceServices& device,
                       SimTime ready) override {
    (void)device;
    return ready;
  }

  std::vector<smart::LpnRange> InputExtents() const override {
    return {{table_->first_lpn, table_->page_count}};
  }

  Result<smart::ProgramCharge> ProcessPage(
      std::span<const std::byte> page, smart::ResultSink& sink) override {
    auto reader = storage::PaxPageReader::Open(&table_->schema, page);
    SMARTSSD_RETURN_IF_ERROR(reader.status());
    ZoneEntry entry{table_->first_lpn + pages_seen_,
                    std::numeric_limits<std::int32_t>::max(),
                    std::numeric_limits<std::int32_t>::min()};
    for (std::uint16_t i = 0; i < reader->tuple_count(); ++i) {
      std::int32_t v;
      std::memcpy(&v, reader->value(i, column_), sizeof(v));
      entry.min_value = std::min(entry.min_value, v);
      entry.max_value = std::max(entry.max_value, v);
    }
    sink.Emit({reinterpret_cast<const std::byte*>(&entry), sizeof(entry)});
    ++pages_seen_;
    // Cost: one PAX minipage walk; ~8 cycles per value on the embedded
    // cores plus fixed page overhead.
    return smart::ProgramCharge{
        .cycles = 1500 + 8ull * reader->tuple_count()};
  }

  Result<smart::ProgramCharge> Finish(smart::ResultSink&) override {
    return smart::ProgramCharge{.cycles = 100};
  }

 private:
  const storage::TableInfo* table_;
  int column_;
  std::uint64_t pages_seen_ = 0;
};

}  // namespace

int main() {
  engine::Database db(engine::DatabaseOptions::PaperSmartSsd());
  auto table = tpch::LoadSyntheticS(db, "S", /*num_columns=*/16,
                                    /*rows=*/100'000, /*r_rows=*/100,
                                    storage::PageLayout::kPax);
  if (!table.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }
  db.ResetForColdRun();

  // Drive the session protocol directly.
  ZoneMapBuilder program(&*table, /*column=*/2);
  std::vector<std::byte> output;
  auto session = db.runtime()->RunSession(program, /*start=*/0, &output);
  if (!session.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }

  const std::size_t entries = output.size() / sizeof(ZoneEntry);
  std::printf("Session %llu: built zone maps for %llu pages in %.4f s "
              "(virtual), %llu GETs, %.1f KB shipped to host "
              "(vs %.1f MB of raw pages).\n",
              static_cast<unsigned long long>(session->session_id),
              static_cast<unsigned long long>(session->pages_processed),
              ToSeconds(session->elapsed()),
              static_cast<unsigned long long>(session->gets_issued),
              static_cast<double>(output.size()) / 1e3,
              static_cast<double>(table->page_count) *
                  db.device().page_size() / 1e6);

  // Show a few entries and verify them against Col_3's domain.
  std::printf("\n%-10s %12s %12s\n", "lpn", "min(Col_3)", "max(Col_3)");
  for (std::size_t i = 0; i < entries; i += entries / 8 + 1) {
    ZoneEntry entry;
    std::memcpy(&entry, output.data() + i * sizeof(ZoneEntry),
                sizeof(entry));
    std::printf("%-10llu %12d %12d\n",
                static_cast<unsigned long long>(entry.lpn),
                entry.min_value, entry.max_value);
  }
  std::printf("\nA zone-aware scan could now skip every page whose "
              "[min,max] excludes its predicate range without reading "
              "it from flash.\n");
  return 0;
}
