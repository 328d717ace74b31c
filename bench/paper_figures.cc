// Every table and figure of the paper's evaluation, plus the SIGMOD'13
// sweeps, ablations and extensions around it, regenerated by one binary.
//
// A query experiment is one Row: the same query on a reference side
// (the SSD's host path, unless noted) and on a measured side, each a
// device, a set of hardware knobs and a page layout. Measure() loads
// what the two sides need (or reuses a database another row loaded the
// same way), runs both cold, fails the bench unless their outputs are
// byte-identical, prints the row's table line and adds one JSON row.
// Sections without a query (Figure 1, Table 2, the FTL sweep) print
// from their own short functions.
//
// Benches run at a reduced scale (SF 0.05 unless noted). Virtual time
// is linear in data volume, so ratios are scale-invariant and the
// tables print an SF-100 projection; the "scale" section checks that
// premise. Usage: paper_figures [--json=<path>]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "check/result_compare.h"
#include "common/random.h"
#include "energy/energy_model.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "expr/expression.h"
#include "flash/flash_array.h"
#include "ftl/ftl.h"
#include "ssd/interface_trends.h"
#include "ssd/ssd_device.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {

using engine::DatabaseOptions;
using storage::PageLayout;
using Counters = std::vector<std::pair<std::string, double>>;

constexpr double kScaleUp = 100.0 / 0.05;  // SF 0.05 -> SF 100

// ---------------------------------------------------------------------
// What a row runs.

// The hardware the ablations sweep. The defaults are the paper's device
// (8 channels on one DRAM bus, 8 KiB pages, 3 x 400 MHz cores, SAS
// 6 Gb/s), so a side that sweeps to the paper's value shares the paper
// device's database.
struct Knobs {
  int dram_buses = 1;  // each with 8 flash channels
  std::uint32_t page_kib = 8;
  int cores = 3;
  std::uint64_t mhz = 400;
  ssd::HostInterfaceStandard link = ssd::HostInterfaceStandard::kSas6g;
  bool operator==(const Knobs&) const = default;
};

enum class Device { kHdd, kSsd, kSmartSsd };

// One side of a row. Queries on the Smart SSD are pushed down; the HDD
// and the SSD run them on the host.
struct Side {
  Device device;
  PageLayout layout = PageLayout::kNsm;  // the table copy the query reads
  Knobs knobs = {};
  // The database holds an NSM and then a PAX copy of its tables, as
  // Figures 3 and 7 load the Smart SSD; otherwise only `layout`'s.
  bool both_layouts = false;
  bool zone_map = false;
  bool operator==(const Side&) const = default;
};

// The tables of one copy, in load order. A table's LPNs depend on the
// tables loaded before it, so the order is part of a database's identity.
struct Data {
  enum class Kind {
    kLineitem,      // lineitem
    kLineitemPart,  // lineitem, part
    kJoin,          // Synthetic64 S (`rows`), then R (rows / 400)
    kSynthetic,     // T: `columns` int columns, `rows` rows
  } kind;
  double sf = 0.05;
  int columns = 0;
  std::uint64_t rows = 0;
  bool operator==(const Data&) const = default;
};

// Tables are named per copy ("lineitem_pax"), so one database can hold
// both layouts.
std::string Suffix(PageLayout layout) {
  return layout == PageLayout::kNsm ? "_nsm" : "_pax";
}

using MakeQuery = std::function<exec::QuerySpec(const std::string& suffix)>;

MakeQuery Q6() {
  return [](const std::string& s) { return tpch::Q6Spec("lineitem" + s); };
}
MakeQuery Q14() {
  return [](const std::string& s) {
    return tpch::Q14Spec("lineitem" + s, "part" + s);
  };
}
MakeQuery Q1() {
  return [](const std::string& s) { return tpch::Q1Spec("lineitem" + s); };
}
MakeQuery Join(double sel) {
  return [sel](const std::string& s) {
    return tpch::JoinQuerySpec("S" + s, "R" + s, sel);
  };
}
MakeQuery Scan(int columns, double sel, bool aggregate, int projected = 0) {
  return [=](const std::string& s) {
    return tpch::ScanQuerySpec("T" + s, columns, sel, aggregate, projected);
  };
}
MakeQuery TopN(int columns, double sel) {
  return [=](const std::string& s) {
    return tpch::TopNQuerySpec("T" + s, columns, sel, 100);
  };
}
// SUM(Col_3) over rows with Col_1 < limit: Col_1 = row + 1 is clustered
// by load order, so zone maps can prune on it.
MakeQuery Clustered(std::uint64_t rows, double sel) {
  return [=](const std::string& s) {
    namespace ex = ::smartssd::expr;
    exec::QuerySpec spec;
    spec.name = "clustered";
    spec.table = "T" + s;
    spec.predicate = ex::Lt(
        ex::Col(0), ex::Lit(static_cast<std::int64_t>(sel * rows) + 1));
    spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s"});
    return spec;
  };
}

struct Section;

struct Row {
  const Section* section;
  std::string label;  // printed configuration name; may repeat over a sweep
  double sweep;       // the swept value (NAN: none)
  Data data;
  Side base;      // the reference side
  Side measured;  // the side the table line reports
  MakeQuery query;
  double paper_ratio = NAN;  // the paper's base/measured ratio, if stated
};

// Both runs of a row: the measured side's stats, energy and output
// shape, and the base side's stats and table.
struct Outcome {
  engine::QueryStats base;
  engine::QueryStats measured;
  energy::EnergyBreakdown energy;  // measured run, not projected
  std::vector<std::int64_t> aggs;
  std::uint64_t rows = 0;
  std::uint32_t tuples_per_page = 0;  // of the base side's table

  double seconds() const { return measured.elapsed_seconds(); }
  double speedup() const { return base.elapsed_seconds() / seconds(); }
};

class Bench;

struct Section {
  const char* id;  // JSON config prefix
  const char* title;
  const char* paper_ref;
  const char* columns;  // the table's column header
  const char* sweep;    // the swept parameter's JSON name, if any
  // Prints a row's table line; returns the printed columns the JSON row
  // cannot derive from its seconds and ratio.
  Counters (*line)(Bench&, const Row&, const Outcome&);
  // Prints what follows the rows (for a section without rows, its whole
  // table); null prints the closing rule.
  void (*finish)(Bench&);
  const char* remark;  // closing line, if any
};

// ---------------------------------------------------------------------
// The helper.

class Bench {
 public:
  Bench(int argc, char** argv, std::vector<Row> rows)
      : json_("paper_figures", argc, argv), rows_(std::move(rows)) {}

  bench::JsonReporter& json() { return json_; }

  // A measured row's outcome, by its JSON config ("fig3/Smart SSD (PAX)").
  const Outcome& done(const std::string& config) const {
    return done_.at(config);
  }

  void Run(const Section& section) {
    bench::PrintHeader(section.title, section.paper_ref);
    std::printf("%s\n", section.columns);
    bench::PrintRule();
    for (const Row& row : rows_) {
      if (row.section == &section) Measure(row);
    }
    if (section.finish != nullptr) {
      section.finish(*this);
    } else {
      bench::PrintRule();
    }
    if (section.remark != nullptr) std::printf("%s\n", section.remark);
  }

  // The database a side reads, loaded on first use.
  engine::Database& Db(const Side& side, const Data& data) {
    const DbKey key = Key(side, data);
    for (auto& [cached, db] : dbs_) {
      if (cached == key) return *db;
    }
    auto db = std::make_unique<engine::Database>(Options(side));
    for (const PageLayout layout :
         side.both_layouts
             ? std::vector<PageLayout>{PageLayout::kNsm, PageLayout::kPax}
             : std::vector<PageLayout>{side.layout}) {
      Load(*db, data, layout);
    }
    if (side.zone_map) {
      bench::Check(db->BuildZoneMap("T" + Suffix(side.layout)),
                   "build zone map");
    }
    return *dbs_.emplace_back(key, std::move(db)).second;
  }

 private:
  static std::string Config(const Row& row) {
    std::string config = std::string(row.section->id) + "/" + row.label;
    if (!std::isnan(row.sweep)) {
      char value[64];
      std::snprintf(value, sizeof(value), "%s%s=%g",
                    row.label.empty() ? "" : " ", row.section->sweep,
                    row.sweep);
      config += value;
    }
    return config;
  }

  // What identifies a loaded database: a side up to the copy it reads,
  // and the data.
  struct DbKey {
    Side side;
    Data data;
    bool operator==(const DbKey&) const = default;
  };
  static DbKey Key(Side side, const Data& data) {
    if (side.both_layouts) side.layout = PageLayout::kNsm;
    return {side, data};
  }

  static DatabaseOptions Options(const Side& side) {
    DatabaseOptions o = DatabaseOptions::PaperSmartSsd();
    if (side.device == Device::kHdd) o = DatabaseOptions::PaperHdd();
    if (side.device == Device::kSsd) o = DatabaseOptions::PaperSsd();
    const Knobs& k = side.knobs;
    o.ssd.dram.bus_count = k.dram_buses;
    o.ssd.geometry.channels = 8 * k.dram_buses;
    o.ssd.geometry.page_size_bytes = k.page_kib * kKiB;
    o.ssd.geometry.blocks_per_chip = 512 * 8 / k.page_kib / k.dram_buses;
    o.ssd.embedded_cpu.cores = k.cores;
    o.ssd.embedded_cpu.clock_hz = k.mhz * 1'000'000;
    o.ssd.host_interface.standard = k.link;
    return o;
  }

  static void Load(engine::Database& db, const Data& data,
                   PageLayout layout) {
    const std::string s = Suffix(layout);
    switch (data.kind) {
      case Data::Kind::kLineitem:
      case Data::Kind::kLineitemPart:
        bench::Unwrap(tpch::LoadLineitem(db, "lineitem" + s, data.sf, layout),
                      "load lineitem");
        if (data.kind == Data::Kind::kLineitemPart) {
          bench::Unwrap(tpch::LoadPart(db, "part" + s, data.sf, layout),
                        "load part");
        }
        break;
      case Data::Kind::kJoin:
        bench::Unwrap(tpch::LoadSyntheticS(db, "S" + s, 64, data.rows,
                                           data.rows / 400, layout),
                      "load S");
        bench::Unwrap(
            tpch::LoadSyntheticR(db, "R" + s, 64, data.rows / 400, layout),
            "load R");
        break;
      case Data::Kind::kSynthetic:
        bench::Unwrap(tpch::LoadSyntheticS(db, "T" + s, data.columns,
                                           data.rows, 1000, layout),
                      "load T");
        break;
    }
  }

  // Frees every database no row still to be measured reads.
  void Evict() {
    std::erase_if(dbs_, [&](const auto& entry) {
      return std::none_of(rows_.begin(), rows_.end(), [&](const Row& row) {
        return !done_.contains(Config(row)) &&
               (Key(row.base, row.data) == entry.first ||
                Key(row.measured, row.data) == entry.first);
      });
    });
  }

  struct SideRun {
    check::ExecutionOutput output;
    engine::QueryStats stats;
    energy::EnergyBreakdown energy;
    std::uint32_t tuples_per_page;
  };

  SideRun Execute(const Row& row, const Side& side, std::string who) {
    engine::Database& db = Db(side, row.data);
    const exec::QuerySpec spec = row.query(Suffix(side.layout));
    db.ResetForColdRun();
    engine::QueryExecutor executor(&db);
    engine::QueryResult result = bench::Unwrap(
        executor.Execute(spec, side.device == Device::kSmartSsd
                                   ? engine::ExecutionTarget::kSmartSsd
                                   : engine::ExecutionTarget::kHost),
        who.c_str());
    const storage::TableInfo* table =
        bench::Unwrap(db.catalog().GetTable(spec.table), "table");
    const energy::EnergyBreakdown energy = energy::ComputeEnergy(
        result.stats, db.host().config(), db.device().power_profile());
    const engine::QueryStats stats = result.stats;
    // The rows move into the output: the result is not read again.
    return SideRun{check::FromQuery(std::move(who), std::move(result)),
                   stats, energy, table->tuples_per_page};
  }

  void Measure(const Row& row) {
    const std::string config = Config(row);
    const SideRun base = Execute(row, row.base, config + " (base)");
    SideRun measured = Execute(row, row.measured, config);
    if (const Status same = check::CompareOutputs(base.output,
                                                  measured.output);
        !same.ok()) {
      std::fprintf(stderr, "result mismatch: %s\n", same.ToString().c_str());
      std::exit(1);
    }
    Outcome outcome{.base = base.stats,
                    .measured = measured.stats,
                    .energy = measured.energy,
                    .aggs = std::move(measured.output.aggs),
                    .rows = measured.output.row_count(),
                    .tuples_per_page = base.tuples_per_page};
    Counters counters = row.section->line(*this, row, outcome);
    json_.AddWithCounters(config, outcome.seconds(), row.paper_ratio,
                          outcome.speedup(), std::move(counters));
    done_.emplace(config, std::move(outcome));
    Evict();
  }

  bench::JsonReporter json_;
  std::vector<Row> rows_;
  std::vector<std::pair<DbKey, std::unique_ptr<engine::Database>>> dbs_;
  std::map<std::string, Outcome> done_;
};

// ---------------------------------------------------------------------
// Figure 1: host interface vs SSD-internal bandwidth trends, relative
// to the 2007 interface (375 MB/s). The internal path pulls away to
// about 10x the interface around the 2012 device: the structural
// argument for moving computation into the device.

void Fig1(Bench& b) {
  for (const auto& point : ssd::BandwidthTrends()) {
    const double host = ssd::HostRelative(point);
    const double internal = ssd::InternalRelative(point);
    std::printf("%-6d %-24s %9.1fx %9.1fx %7.1fx\n", point.year,
                point.host_interface_name, host, internal, internal / host);
    b.json().AddWithCounters(
        "fig1/year=" + std::to_string(point.year), 0,
        point.year == 2012 ? 10.0 : NAN, internal / host,
        {{"host_relative", host}, {"internal_relative", internal}});
  }
  bench::PrintRule();
  const auto& y2012 = ssd::BandwidthTrends()[5];
  std::printf(
      "Paper (Section 4.2): the Figure 1 gap around the 2012 device is "
      "'about 10X'; measured %d gap %.1fx.\n",
      y2012.year, ssd::InternalRelative(y2012) / ssd::HostRelative(y2012));
  std::printf(
      "The 2012 device of Table 2 sits at 1,560/550 = 2.8x of this "
      "curve.\n");
}

// ---------------------------------------------------------------------
// Figures 3 and 7: TPC-H Q6 and Q14 on the SAS SSD against the Smart
// SSD with NSM and PAX pages. The paper reports PAX 1.7x (Q6) and 1.3x
// (Q14) over the SSD; Q14 gains less because every LINEITEM tuple
// probes the PART hash table (Figure 6's probe-first plan).

Counters ElapsedLine(Bench&, const Row& row, const Outcome& o) {
  std::printf("%-18s %13.4f s %14.1f s %9.2fx\n", row.label.c_str(),
              o.seconds(), o.seconds() * kScaleUp, o.speedup());
  return {};
}

void Fig3Finish(Bench& b) {
  bench::PrintRule();
  const Outcome& pax = b.done("fig3/Smart SSD (PAX)");
  std::printf("Q6 revenue agrees across configurations: yes (%.2f)\n",
              tpch::Q6Revenue(pax.aggs));
  std::printf("Paper: Smart SSD (PAX) improves Q6 by 1.7x over the SSD; "
              "measured %.2fx\n",
              pax.speedup());
}

void Fig7Finish(Bench& b) {
  bench::PrintRule();
  const Outcome& pax = b.done("fig7/Smart SSD (PAX)");
  std::printf("promo_revenue agrees: yes (%.4f%%)\n",
              tpch::Q14PromoRevenue(pax.aggs));
  std::printf(
      "Paper: Smart SSD (PAX) improves Q14 by 1.3x over the SSD; measured "
      "%.2fx\n",
      pax.speedup());
}

// ---------------------------------------------------------------------
// Figure 5: selection + join on Synthetic64 S |x| R (S = 400 R, scaled
// 1/2000 from the paper's 400M-row S). Up to 2.2x at 1 % selectivity,
// saturating toward parity at 100 % as per-match probe and result work
// grows.

Counters Fig5Line(Bench&, const Row& row, const Outcome& o) {
  std::printf("%11.0f%% %13.1f s %14.1f s %8.2fx %12s\n", row.sweep * 100,
              o.base.elapsed_seconds() * kScaleUp, o.seconds() * kScaleUp,
              o.speedup(), "yes");
  return {};
}

// ---------------------------------------------------------------------
// Table 2: maximum sequential read bandwidth with 32-page (256 KB)
// I/Os: 550 MB/s through the SAS interface, 1,560 MB/s internally — the
// 2.8x upper bound on any Smart SSD gain with this device.

void Table2(Bench& b) {
  constexpr std::uint64_t kPages = 32768;  // 256 MiB at 8 KiB pages
  constexpr std::uint32_t kIoPages = 32;
  ssd::SsdDevice device(ssd::SsdConfig::PaperSmartSsd());
  std::vector<std::byte> buffer(
      static_cast<std::size_t>(kIoPages) * device.page_size(),
      std::byte{0x5A});
  SimTime t = 0;
  for (std::uint64_t lpn = 0; lpn < kPages; lpn += kIoPages) {
    t = bench::Unwrap(device.WritePages(lpn, kIoPages, buffer, t),
                      "preload write");
  }
  const double bytes = static_cast<double>(kPages) * device.page_size();

  device.ResetTiming();
  SimTime done = 0;
  for (std::uint64_t lpn = 0; lpn < kPages; lpn += kIoPages) {
    done = bench::Unwrap(device.ReadPages(lpn, kIoPages, {}, 0), "host read");
  }
  const double host_mbps = bytes / ToSeconds(done) / 1e6;
  device.ResetTiming();
  for (std::uint64_t lpn = 0; lpn < kPages; ++lpn) {
    done = bench::Unwrap(device.InternalReadPageTiming(lpn, 0),
                         "internal read");
  }
  const double internal_mbps = bytes / ToSeconds(done) / 1e6;

  std::printf("%-28s %9d MB/s %8.0f MB/s\n", "SAS SSD (host interface)", 550,
              host_mbps);
  std::printf("%-28s %9d MB/s %8.0f MB/s\n", "Smart SSD (internal)", 1560,
              internal_mbps);
  bench::PrintRule();
  std::printf("Internal/host ratio: paper 2.8x, measured %.2fx\n",
              internal_mbps / host_mbps);
  // Seconds are the virtual time to stream the region at each bandwidth.
  b.json().Add("table2/SAS SSD (host interface)", bytes / (host_mbps * 1e6),
               1.0, 1.0);
  b.json().Add("table2/Smart SSD (internal)", bytes / (internal_mbps * 1e6),
               2.8, internal_mbps / host_mbps);
}

// ---------------------------------------------------------------------
// Table 3: Q6 energy for the SAS HDD, the SAS SSD and the Smart SSD
// with NSM and PAX pages, projected to SF 100. It prices Figure 3's
// runs; the one new run is the HDD's, checked against Smart SSD (PAX).
// Relative to Smart SSD (PAX) the paper reports HDD 11.6x system /
// 14.3x I/O / 12.4x over idle, and SSD 1.9x / 1.4x / 2.3x.

energy::EnergyBreakdown Sf100(energy::EnergyBreakdown e) {
  e.elapsed_seconds *= kScaleUp;
  e.system_kilojoules *= kScaleUp;
  e.io_kilojoules *= kScaleUp;
  e.over_idle_kilojoules *= kScaleUp;
  return e;
}

Counters EnergyLine(const char* label, const Outcome& o) {
  const energy::EnergyBreakdown e = Sf100(o.energy);
  std::printf("%-18s %11.1f %13.1f %13.2f %12.1f\n", label,
              o.seconds() * kScaleUp, e.system_kilojoules, e.io_kilojoules,
              e.average_system_watts);
  return {{"system_kj", e.system_kilojoules},
          {"io_kj", e.io_kilojoules},
          {"over_idle_kj", e.over_idle_kilojoules},
          {"average_watts", e.average_system_watts}};
}

Counters Table3Line(Bench&, const Row& row, const Outcome& o) {
  return EnergyLine(row.label.c_str(), o);
}

void Table3Finish(Bench& b) {
  for (const char* label :
       {"SAS SSD", "Smart SSD (NSM)", "Smart SSD (PAX)"}) {
    const Outcome& o = b.done(std::string("fig3/") + label);
    b.json().AddWithCounters(std::string("table3/") + label, o.seconds(), NAN,
                             NAN, EnergyLine(label, o));
  }
  bench::PrintRule();
  std::printf("Ratios vs Smart SSD (PAX):          paper    measured\n");
  using Energy = energy::EnergyBreakdown;
  const Energy pax = Sf100(b.done("fig3/Smart SSD (PAX)").energy);
  struct Ratio {
    const char* name;
    double Energy::*field;
    double hdd_paper;
    double ssd_paper;
  };
  const Ratio ratios[] = {
      {"system energy", &Energy::system_kilojoules, 11.6, 1.9},
      {"I/O subsystem energy", &Energy::io_kilojoules, 14.3, 1.4},
      {"energy over 235 W idle", &Energy::over_idle_kilojoules, 12.4, 2.3},
  };
  for (const bool hdd : {true, false}) {
    const Outcome& o = b.done(hdd ? "table3/SAS HDD" : "fig3/SAS SSD");
    const Energy e = Sf100(o.energy);
    for (const Ratio& r : ratios) {
      const std::string name = std::string(hdd ? "HDD " : "SSD ") + r.name;
      const double paper = hdd ? r.hdd_paper : r.ssd_paper;
      const double measured = e.*r.field / pax.*r.field;
      std::printf("  %-33s %4.1fx    %8.1fx\n", name.c_str(), paper,
                  measured);
      b.json().Add("table3/" + name, o.seconds(), paper, measured);
    }
  }
}

// ---------------------------------------------------------------------
// SIGMOD'13 sweeps (Section 4.2.1 points to [7] for scans with varying
// selectivity, tuple width, and with or without aggregation).

// Sweep A: with a terminal aggregate the result is one tuple and the
// Smart SSD keeps its advantage; returning rows, the qualifying tuples
// cross the host link and the advantage decays through parity. Each
// selectivity prints one line for its two rows.
Counters S13SelectivityLine(Bench&, const Row& row, const Outcome& o) {
  if (row.label == "agg") {
    std::printf("%10.2f%% %17.2fx", row.sweep * 100, o.speedup());
  } else {
    std::printf(" %20.2fx\n", o.speedup());
  }
  return {};
}

// Sweep B: at fixed volume (~40 MB), wider tuples mean fewer per-tuple
// interpreter invocations per byte, so the speedup approaches the 2.8x
// bandwidth bound; narrow tuples are the worst case in the device.
Counters S13WidthLine(Bench&, const Row& row, const Outcome& o) {
  const int columns = static_cast<int>(row.sweep);
  std::printf("%-10d %12llu %12llu %12u %8.2fx\n", columns,
              4ull * columns, static_cast<unsigned long long>(row.data.rows),
              o.tuples_per_page, o.speedup());
  return {{"rows", static_cast<double>(row.data.rows)},
          {"tuples_per_page", o.tuples_per_page}};
}

// Sweep C: aggregation collapses the result to one tuple; returning rows
// pays materialization on the embedded cores and the host link.
Counters S13AggregationLine(Bench&, const Row& row, const Outcome& o) {
  std::printf("%-34s %11.0f%% %12.2f %8.2fx\n", row.label.c_str(),
              row.sweep * 100,
              static_cast<double>(o.measured.output_bytes) / 1e6,
              o.speedup());
  return {{"result_bytes", static_cast<double>(o.measured.output_bytes)}};
}

// ---------------------------------------------------------------------
// Ablations (Sections 4.2 and 5).

// 1: DRAM buses, the serialization point Section 4.2 blames for the
// 2.8x ceiling. Internal bandwidth rises with the buses (and a matching
// channel budget); Q6 stays at the embedded-CPU bound.
Counters DramBusesLine(Bench& b, const Row& row, const Outcome& o) {
  constexpr std::uint64_t kProbePages = 16384;
  engine::Database& db = b.Db(row.measured, row.data);
  db.ResetForColdRun();
  SimTime done = 0;
  for (std::uint64_t lpn = 0; lpn < kProbePages; ++lpn) {
    done = bench::Unwrap(db.ssd()->InternalReadPageTiming(lpn, 0),
                         "internal read");
  }
  const double internal_mbps = static_cast<double>(kProbePages) *
                               db.ssd()->page_size() / ToSeconds(done) / 1e6;
  const int buses = row.measured.knobs.dram_buses;
  std::printf("%-8d %10d %15.0f %13.4f %9.2fx\n", buses, 8 * buses,
              internal_mbps, o.seconds(), o.speedup());
  return {{"internal_mbps", internal_mbps}};
}

// 2: embedded cores and clock (Section 5: "the CPU quickly became a
// bottleneck"). The speedup grows with compute until it meets the 2.8x
// bandwidth bound of Table 2.
Counters EmbeddedCpuLine(Bench&, const Row& row, const Outcome& o) {
  const Knobs& k = row.measured.knobs;
  std::printf("%-8d %10llu %15.2f %13.4f %9.2fx\n", k.cores,
              static_cast<unsigned long long>(k.mhz), k.cores * k.mhz / 1000.0,
              o.seconds(), o.speedup());
  return {};
}

// 3: zone maps as in-SSD indexing, both sides pushed down. On the
// clustered Col_1, pruning skips the pages before they leave flash; on
// the random Col_3 the statistics prune nothing.
Counters ZoneMapLine(Bench&, const Row& row, const Outcome& o) {
  const auto skipped =
      static_cast<unsigned long long>(o.measured.pages_skipped);
  if (row.label == "clustered") {
    std::printf("%10.0f%% %15.4f %16.4f %12llu %9.2fx\n", row.sweep * 100,
                o.base.elapsed_seconds(), o.seconds(), skipped, o.speedup());
  } else {
    bench::PrintRule();
    std::printf(
        "control (random Col_3 predicate, 10%%): %0.4f s vs %0.4f s, "
        "%llu pages skipped\n",
        o.base.elapsed_seconds(), o.seconds(), skipped);
  }
  return {{"pages_skipped", static_cast<double>(skipped)}};
}

// 4: the host interface generation (Figure 1 inverted). As the link
// catches up, the host path speeds up and the 2013 device's pushdown
// advantage shrinks, then inverts.
Counters HostInterfaceLine(Bench&, const Row& row, const Outcome& o) {
  std::printf("%-30s %13.4f %14.4f %9.2fx\n", row.label.c_str(),
              o.base.elapsed_seconds(), o.seconds(), o.speedup());
  return {};
}

// 5: page size. Bigger pages amortize per-page firmware overheads; the
// conclusion never flips, so the paper's 8 KB is conservative.
Counters PageSizeLine(Bench&, const Row& row, const Outcome& o) {
  std::printf("%8u KiB %12u %13.4f %14.4f %9.2fx\n",
              row.measured.knobs.page_kib, o.tuples_per_page,
              o.base.elapsed_seconds(), o.seconds(), o.speedup());
  return {{"tuples_per_page", o.tuples_per_page}};
}

// 6: the FTL (Section 2) under random overwrites: write amplification
// against over-provisioning. Fill 90 % of logical space, then overwrite
// 4x the live pages at random.
void FtlGc(Bench& b) {
  for (const double op : {0.07, 0.125, 0.25, 0.4}) {
    flash::Geometry geometry;
    geometry.channels = 4;
    geometry.chips_per_channel = 2;
    geometry.blocks_per_chip = 64;
    geometry.pages_per_block = 32;
    geometry.page_size_bytes = 4096;
    flash::FlashArray array(geometry, flash::Timings{});
    ftl::FtlConfig config;
    config.over_provisioning = op;
    ftl::Ftl ftl(&array, config);

    const std::uint64_t live = ftl.logical_pages() * 9 / 10;
    std::vector<std::byte> page(4096, std::byte{0x42});
    SimTime t = 0;
    for (std::uint64_t lpn = 0; lpn < live; ++lpn) {
      t = bench::Unwrap(ftl.Write(lpn, page, t), "fill");
    }
    Random rng(1234);
    for (std::uint64_t i = 0; i < 4 * live; ++i) {
      t = bench::Unwrap(ftl.Write(rng.Uniform(live), page, t), "overwrite");
    }
    const ftl::FtlStats& stats = ftl.stats();
    std::printf("%6.1f%% %12llu %10llu %12llu %13.2fx %12u\n", op * 100,
                static_cast<unsigned long long>(ftl.logical_pages()),
                static_cast<unsigned long long>(stats.gc_runs),
                static_cast<unsigned long long>(stats.block_erases),
                stats.write_amplification(), ftl.max_erase_count());
    char config_name[32];
    std::snprintf(config_name, sizeof(config_name), "ftl_gc/op=%g", op);
    b.json().AddWithCounters(
        config_name, ToSeconds(t), NAN, NAN,
        {{"logical_pages", static_cast<double>(ftl.logical_pages())},
         {"gc_runs", static_cast<double>(stats.gc_runs)},
         {"erases", static_cast<double>(stats.block_erases)},
         {"write_amplification", stats.write_amplification()},
         {"max_wear", ftl.max_erase_count()}});
  }
  bench::PrintRule();
}

// ---------------------------------------------------------------------
// Extensions: the operators Section 5 leaves as future work.

// TPC-H Q1 (GROUP BY): ~98 % of LINEITEM, five aggregates per tuple,
// four result rows. The paper's 3 x 400 MHz device loses (its cores
// saturate far below the link rate); 6 x 800 MHz wins.
Counters Q1Line(Bench&, const Row& row, const Outcome& o) {
  std::printf("%-34s %12.1f %9.2fx %8llu\n", row.label.c_str(),
              o.seconds() * kScaleUp, o.speedup(),
              static_cast<unsigned long long>(o.rows));
  return {{"groups", static_cast<double>(o.rows)}};
}

// ORDER BY/LIMIT 100: the plain row-returning scan decays with
// selectivity; top-N ships 100 rows whatever the selectivity. Each
// selectivity prints one line for its two rows.
Counters TopNLine(Bench&, const Row& row, const Outcome& o) {
  if (row.label == "plain") {
    std::printf("%10.0f%% %21.2fx", row.sweep * 100, o.speedup());
    return {};
  }
  std::printf(" %21.2fx   (%llu rows)\n", o.speedup(),
              static_cast<unsigned long long>(o.rows));
  return {{"rows", static_cast<double>(o.rows)}};
}

// ---------------------------------------------------------------------
// Scale invariance: every SF-100 projection assumes a ratio measured at
// SF 0.05 holds at any scale. Q6 and Q14 rerun at SF 0.01 on the same
// database recipes; each speedup must stay within kScaleBound of its
// Figure 3 / Figure 7 value.

// Q6 moves 0.9 % between the two scales. Q14 moves 3.9 %: PART's hash
// table changes cache tier between them, so its probes price
// differently (and would price lower still at SF 100's 20M entries).
constexpr double kScaleBound = 0.05;

Counters ScaleLine(Bench& b, const Row& row, const Outcome& o) {
  const double reference =
      b.done(row.label == "Q6" ? "fig3/Smart SSD (PAX)"
                               : "fig7/Smart SSD (PAX)")
          .speedup();
  const double drift = std::abs(o.speedup() / reference - 1);
  std::printf("%-8s %13.4fx %13.4fx %10.1f%%\n", row.label.c_str(),
              o.speedup(), reference, drift * 100);
  if (drift > kScaleBound) {
    std::fprintf(stderr, "%s speedup moved %.1f%% between SF %g and 0.05\n",
                 row.label.c_str(), drift * 100, row.sweep);
    std::exit(1);
  }
  return {{"sf0.05_speedup", reference}};
}

// ---------------------------------------------------------------------
// The sections and their rows.

const Section kFig1{
    "fig1", "Host interface vs SSD-internal bandwidth, relative to 2007",
    "Figure 1",
    "year   host interface            host(rel)   internal      gap",
    nullptr, nullptr, Fig1, nullptr};
const Section kFig3{
    "fig3", "TPC-H Q6 elapsed time: SSD vs Smart SSD (NSM/PAX)", "Figure 3",
    "configuration      elapsed (SF0.05)  projected SF100    speedup",
    nullptr, ElapsedLine, Fig3Finish, nullptr};
const Section kFig5{
    "fig5", "Selection+join on Synthetic64 R |x| S vs selectivity factor",
    "Figure 5",
    "selectivity  SSD (s, SF100)    Smart PAX (s)   speedup   rows match",
    "sel", Fig5Line, nullptr,
    "Paper: up to 2.2x at 1% selectivity; saturating toward ~1x at 100%."};
const Section kFig7{
    "fig7", "TPC-H Q14 elapsed time: SSD vs Smart SSD (NSM/PAX)", "Figure 7",
    "configuration      elapsed (SF0.05)  projected SF100    speedup",
    nullptr, ElapsedLine, Fig7Finish, nullptr};
const Section kTable2{
    "table2", "Maximum sequential read bandwidth, 32-page (256 KB) I/Os",
    "Table 2", "path                                paper     measured",
    nullptr, nullptr, Table2, nullptr};
const Section kTable3{
    "table3", "Energy consumption for TPC-H Query 6", "Table 3",
    "configuration       elapsed (s)    system (kJ) I/O subsys (kJ)    "
    "avg watts",
    nullptr, Table3Line, Table3Finish, nullptr};
const Section kS13Selectivity{
    "s13_selectivity",
    "Single-table scan: Smart SSD speedup vs selectivity, with and without "
    "aggregation",
    "the SIGMOD'13 selectivity sweeps referenced in Section 4.2.1",
    "selectivity  speedup (with agg) speedup (return rows)", "sel",
    S13SelectivityLine, nullptr,
    "Shape check: the aggregate column stays high; the row-returning "
    "column decays toward/below 1x as output volume grows."};
const Section kS13Width{
    "s13_width",
    "Single-table scan+aggregate: Smart SSD speedup vs tuple width (fixed "
    "~40 MB of data)",
    "the SIGMOD'13 tuple-size sweep referenced in Section 4.2.1",
    "columns     tuple bytes         rows  tuples/page   speedup", "columns",
    S13WidthLine, nullptr,
    "Shape check: speedup grows with tuple width toward the 2.8x "
    "bandwidth bound of Table 2."};
const Section kS13Aggregation{
    "s13_aggregation",
    "Scan with vs without aggregation (and narrow vs wide projection)",
    "the SIGMOD'13 with/without-aggregation comparison referenced in "
    "Section 4.2.1",
    "query shape                                 sel    result MB   speedup",
    "sel", S13AggregationLine, nullptr,
    "Shape check: aggregation preserves the benefit; wide row returns "
    "erode it, increasingly so at high selectivity."};
const Section kDramBuses{
    "dram_buses",
    "Ablation: device DRAM buses vs internal bandwidth and Q6 speedup",
    "the Section 4.2 DRAM-bottleneck discussion / Figure 1 projection",
    "buses      channels    internal MB/s   Q6 smart (s)    speedup",
    "buses", DramBusesLine, nullptr,
    "Shape check: bandwidth scales with buses, but Q6 speedup plateaus at "
    "the embedded-CPU bound — bandwidth alone cannot deliver the 10x of "
    "Figure 1."};
const Section kEmbeddedCpu{
    "embedded_cpu", "Ablation: embedded cores/clock vs Q6 pushdown speedup",
    "the Section 5 'CPU quickly became a bottleneck' discussion",
    "cores     clock MHz    device Gcyc/s   Q6 smart (s)    speedup",
    nullptr, EmbeddedCpuLine, nullptr,
    "Shape check: speedup grows with compute until it hits the 2.8x "
    "internal-bandwidth bound of Table 2."};
const Section kZoneMap{
    "zonemap",
    "Ablation: zone-map pruning on clustered vs unclustered predicates "
    "(pushdown path)",
    "the Section 5 storage-layout discussion, as in-SSD indexing",
    "selectivity   no zone map (s)     zone map (s)   pages skip    speedup",
    "sel", ZoneMapLine,
    [](Bench&) {},  // the control line printed the closing rule
    "Shape check: pruning gain ~1/selectivity on the clustered column, "
    "none on the random column."};
const Section kHostInterface{
    "host_interface",
    "Ablation: host interface generation vs Q6 pushdown benefit",
    "the Figure 1 bandwidth-trend argument, inverted",
    "host interface                    host Q6 (s)   smart Q6 (s)    speedup",
    nullptr, HostInterfaceLine, nullptr,
    "Shape check: pushdown benefit shrinks as the link catches up; at PCIe "
    "rates the 2013-era embedded CPU loses outright — i.e. the opportunity "
    "exists exactly while Figure 1's gap persists."};
const Section kPageSize{
    "page_size", "Ablation: page size vs Q6 on both paths",
    "the Section 4.1.1 storage configuration",
    "page size       tuples/pg    host Q6 (s)   smart Q6 (s)    speedup",
    "page_kib", PageSizeLine, nullptr,
    "Shape check: the speedup grows modestly with page size (per-page "
    "firmware overheads amortize over more tuples) and the conclusion "
    "never flips — the paper's 8 KB choice is conservative for the "
    "device."};
const Section kFtlGc{
    "ftl_gc",
    "Ablation: FTL write amplification vs over-provisioning under random "
    "overwrites",
    "the Section 2 FTL description, exercised",
    "OP        logical pgs    GC runs       erases      write amp     "
    "max wear",
    nullptr, nullptr, FtlGc,
    "Shape check: write amplification falls monotonically as "
    "over-provisioning grows — the classic FTL trade-off."};
const Section kQ1{
    "q1_groupby",
    "TPC-H Q1 (GROUP BY) pushdown — extension beyond the paper's operator "
    "set",
    "the Section 5 future-work discussion",
    "configuration                         SF100 (s)    speedup   groups",
    nullptr, Q1Line, nullptr,
    "Shape check: identical 4-group results everywhere; the 2013 device "
    "loses on Q1 (CPU-bound, Section 5's bottleneck), the upgraded device "
    "wins — aggregation ships 4 rows instead of the table."};
const Section kTopN{
    "topn", "Top-N pushdown vs plain row-returning scan — extension operator",
    "the Section 5 future-work discussion",
    "selectivity     plain rows: speedup ORDER BY LIMIT 100: speedup", "sel",
    TopNLine, nullptr,
    "Shape check: the plain-scan column decays with selectivity; the top-N "
    "column stays near the aggregate-scan speedup at every selectivity."};
const Section kScale{
    "scale", "Scale invariance: Smart SSD (PAX) speedups at SF 0.01",
    "the scale-invariance premise of every SF-100 projection",
    "query    SF 0.01 speedup SF 0.05 speedup      drift", "sf", ScaleLine,
    nullptr,
    "Shape check: each speedup stays within 5% of its SF 0.05 value."};

// Print order. Sections that share a database run next to each other,
// so each database is freed soon after its last row.
const Section* const kSections[] = {
    // Bandwidth, then Q6 and its ablations.
    &kFig1, &kTable2, &kFig3, &kTable3, &kDramBuses, &kEmbeddedCpu, &kQ1,
    &kHostInterface, &kPageSize,
    // The joins, and the SF 0.01 reruns of Figures 3 and 7.
    &kFig5, &kFig7, &kScale,
    // The synthetic scans, then the FTL.
    &kS13Selectivity, &kTopN, &kS13Width, &kS13Aggregation, &kZoneMap,
    &kFtlGc};

std::vector<Row> PaperRows() {
  const Side ssd{Device::kSsd};
  const Side smart_pax{Device::kSmartSsd, PageLayout::kPax};
  // Figures 3 and 7 load the Smart SSD with an NSM and a PAX copy.
  const Side fig_nsm{.device = Device::kSmartSsd, .both_layouts = true};
  const Side fig_pax{.device = Device::kSmartSsd,
                     .layout = PageLayout::kPax,
                     .both_layouts = true};
  const Data lineitem{Data::Kind::kLineitem};
  const Data lineitem_part{Data::Kind::kLineitemPart};
  const Data t32{.kind = Data::Kind::kSynthetic, .columns = 32,
                 .rows = 300'000};

  std::vector<Row> rows = {
      {&kFig3, "SAS SSD", NAN, lineitem, ssd, ssd, Q6(), 1.0},
      {&kFig3, "Smart SSD (NSM)", NAN, lineitem, ssd, fig_nsm, Q6()},
      {&kFig3, "Smart SSD (PAX)", NAN, lineitem, ssd, fig_pax, Q6(), 1.7},
  };
  for (const double sel : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    rows.push_back({&kFig5, "", sel,
                    {.kind = Data::Kind::kJoin, .rows = 200'000}, ssd,
                    smart_pax, Join(sel), sel == 0.01 ? 2.2 : NAN});
  }
  rows.insert(
      rows.end(),
      {
          {&kFig7, "SAS SSD", NAN, lineitem_part, ssd, ssd, Q14(), 1.0},
          {&kFig7, "Smart SSD (NSM)", NAN, lineitem_part, ssd, fig_nsm,
           Q14()},
          {&kFig7, "Smart SSD (PAX)", NAN, lineitem_part, ssd, fig_pax,
           Q14(), 1.3},
          {&kTable3, "SAS HDD", NAN, lineitem, fig_pax, Side{Device::kHdd},
           Q6()},
      });

  for (const double sel : {0.0001, 0.001, 0.01, 0.1, 0.25, 0.5, 1.0}) {
    rows.push_back({&kS13Selectivity, "agg", sel, t32, ssd, smart_pax,
                    Scan(32, sel, true)});
    rows.push_back({&kS13Selectivity, "rows", sel, t32, ssd, smart_pax,
                    Scan(32, sel, false)});
  }
  for (const int columns : {4, 8, 16, 32, 64}) {
    const Data data{.kind = Data::Kind::kSynthetic, .columns = columns,
                    .rows = 40ull * 1024 * 1024 / (4ull * columns)};
    rows.push_back({&kS13Width, "", static_cast<double>(columns), data, ssd,
                    smart_pax, Scan(columns, 0.01, true)});
  }
  const Data t16{.kind = Data::Kind::kSynthetic, .columns = 16,
                 .rows = 600'000};
  for (const double sel : {0.01, 0.5}) {
    rows.push_back({&kS13Aggregation, "SUM aggregate (1 result tuple)", sel,
                    t16, ssd, smart_pax, Scan(16, sel, true)});
    rows.push_back({&kS13Aggregation, "return 2 columns", sel, t16, ssd,
                    smart_pax, Scan(16, sel, false, 2)});
    rows.push_back({&kS13Aggregation, "return all 16 columns", sel, t16, ssd,
                    smart_pax, Scan(16, sel, false)});
  }

  for (const int buses : {1, 2, 4, 8}) {
    Side side = smart_pax;
    side.knobs.dram_buses = buses;
    rows.push_back({&kDramBuses, "", static_cast<double>(buses), lineitem,
                    ssd, side, Q6()});
  }
  const std::pair<int, int> cpus[] = {{1, 400}, {2, 400}, {3, 400},
                                      {6, 400}, {3, 800}, {6, 800},
                                      {12, 1200}};
  for (const auto& [cores, mhz] : cpus) {
    Side side = smart_pax;
    side.knobs.cores = cores;
    side.knobs.mhz = mhz;
    rows.push_back({&kEmbeddedCpu,
                    std::to_string(cores) + "x" + std::to_string(mhz) + " MHz",
                    NAN, lineitem, ssd, side, Q6()});
  }
  constexpr std::uint64_t kZoneMapRows = 400'000;
  const Data t16_zm{.kind = Data::Kind::kSynthetic, .columns = 16,
                    .rows = kZoneMapRows};
  const Side pruned{.device = Device::kSmartSsd,
                    .layout = PageLayout::kPax,
                    .zone_map = true};
  for (const double sel : {0.01, 0.1, 0.25, 0.5, 1.0}) {
    rows.push_back({&kZoneMap, "clustered", sel, t16_zm, smart_pax, pruned,
                    Clustered(kZoneMapRows, sel)});
  }
  rows.push_back({&kZoneMap, "random", 0.1, t16_zm, smart_pax, pruned,
                  Scan(16, 0.1, true)});
  const std::pair<const char*, ssd::HostInterfaceStandard> links[] = {
      {"SATA 3Gb/s (~275 MB/s)", ssd::HostInterfaceStandard::kSata3g},
      {"SAS 6Gb/s (~550 MB/s, paper)", ssd::HostInterfaceStandard::kSas6g},
      {"SAS 12Gb/s (~1100 MB/s)", ssd::HostInterfaceStandard::kSas12g},
      {"PCIe3 x4 (~3200 MB/s)", ssd::HostInterfaceStandard::kPcie3x4},
  };
  for (const auto& [label, link] : links) {
    Side host = ssd;
    Side device = smart_pax;
    host.knobs.link = device.knobs.link = link;
    rows.push_back(
        {&kHostInterface, label, NAN, lineitem, host, device, Q6()});
  }
  for (const std::uint32_t kib : {4u, 8u, 16u, 32u}) {
    Side host = ssd;
    Side device = smart_pax;
    host.knobs.page_kib = device.knobs.page_kib = kib;
    rows.push_back({&kPageSize, "", static_cast<double>(kib), lineitem, host,
                    device, Q6()});
  }

  Side upgraded = smart_pax;
  upgraded.knobs.cores = 6;
  upgraded.knobs.mhz = 800;
  rows.insert(rows.end(),
              {
                  {&kQ1, "SAS SSD (host)", NAN, lineitem, ssd, ssd, Q1()},
                  {&kQ1, "Smart SSD (paper: 3x400 MHz)", NAN, lineitem, ssd,
                   smart_pax, Q1()},
                  {&kQ1, "Smart SSD (upgraded: 6x800 MHz)", NAN, lineitem,
                   ssd, upgraded, Q1()},
              });
  for (const double sel : {0.01, 0.1, 0.5, 1.0}) {
    rows.push_back({&kTopN, "plain", sel, t32, ssd, smart_pax,
                    Scan(32, sel, false, 3)});
    rows.push_back(
        {&kTopN, "top100", sel, t32, ssd, smart_pax, TopN(32, sel)});
  }

  rows.insert(rows.end(),
              {
                  {&kScale, "Q6", 0.01,
                   {.kind = Data::Kind::kLineitem, .sf = 0.01}, ssd, fig_pax,
                   Q6()},
                  {&kScale, "Q14", 0.01,
                   {.kind = Data::Kind::kLineitemPart, .sf = 0.01}, ssd,
                   fig_pax, Q14()},
              });
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, PaperRows());
  for (const Section* section : kSections) bench.Run(*section);
  bench.json().Write();
  return 0;
}
