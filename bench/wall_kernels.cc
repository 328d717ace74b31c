// Wall-clock harness for the execution kernel: runs the same
// scan/aggregate pipeline through the scalar (interpreted,
// tuple-at-a-time) kernel and several build-ups of the vectorized
// (batch, selection-vector) kernel over identical in-memory pages, and
// reports steady-clock rows/sec for each. Unlike the fig*/table*
// benches this measures the *simulator's own* CPU efficiency —
// virtual-time numbers are identical across all of these by
// construction (the differential harness proves it), so the only thing
// at stake here is how fast the host machine grinds pages.
//
//   wall_kernels [--json=BENCH_wall.json]
//
// Measured configurations per workload:
//   scalar            interpreted reference kernel
//   vectorized        batch kernel, SIMD lanes forced off (the PR4
//                     baseline every speedup is quoted against)
//   vectorized+simd   batch kernel on this CPU's best ISA
//   vectorized+simd+zm  ... plus zone-map batch skipping (headline;
//                     measured_ratio = speedup over `vectorized`)
// Every run's aggregates AND OpCounts are checked identical to the
// scalar kernel — a fast wrong answer is not a speedup, and a kernel
// that charges different counts would corrupt virtual time.
//
// col1 (the predicate column) is generated as a row-proportional ramp —
// the clustered shape of a date-ordered fact table (think l_shipdate),
// which is what makes per-page min/max statistics selective. The other
// columns stay uniform random. All kernels read the identical pages.
//
// Sweeps selectivity at fixed width, and tuple width at fixed
// selectivity, over both page layouts. Two TPC-H-shaped rows on PAX
// follow: Q1 (GROUP BY two 1-byte keys, four SUMs and a COUNT) and
// Q14 (probe-first FK join into PART, whose keys are dense 1..N), so
// the group-table and hash-probe stages are measured too. Their
// l_shipdate is a row-proportional ramp like col1. Each JSON row
// carries wall_seconds and rows_per_sec; a metadata header row records
// the toolchain, build type, kernel ISA and hardware thread count that
// produced the numbers.

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "exec/page_processor.h"
#include "exec/query_spec.h"
#include "expr/kernel_isa.h"
#include "storage/catalog.h"
#include "storage/nsm_page.h"
#include "storage/pax_page.h"
#include "storage/tuple.h"
#include "storage/zone_map.h"
#include "tpch/dates.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {

namespace ex = ::smartssd::expr;
using storage::PageLayout;

constexpr std::uint32_t kPageSize = 8192;
constexpr int kRows = 400000;
constexpr int kRepeats = 5;
constexpr std::int32_t kValueRange = 1 << 30;

#ifndef SMARTSSD_BUILD_TYPE
#define SMARTSSD_BUILD_TYPE "unknown"
#endif

// An in-memory table: page images plus the catalog entry describing
// them. No device underneath — the pages are fed to the processor
// directly, so flash never shows up in the timing.
struct MemTable {
  storage::TableInfo info;
  std::vector<std::vector<std::byte>> pages;
  std::optional<storage::ZoneMap> zone_map;
};

// Serializes `rows` rows of `gen` into page images of `layout` and
// builds the table's zone map over them.
MemTable BuildMemTable(std::string name, const storage::Schema& schema,
                       PageLayout layout, int rows,
                       const storage::RowGenerator& gen) {
  MemTable table;
  std::vector<std::byte> tuple(schema.tuple_size());
  storage::NsmPageBuilder nsm(&schema, kPageSize);
  storage::PaxPageBuilder pax(&schema, kPageSize);
  auto seal = [&]() {
    if (layout == PageLayout::kNsm) {
      table.pages.emplace_back(nsm.image().begin(), nsm.image().end());
      nsm.Reset();
    } else {
      table.pages.emplace_back(pax.image().begin(), pax.image().end());
      pax.Reset();
    }
  };
  for (int row = 0; row < rows; ++row) {
    storage::TupleWriter w(&schema, tuple);
    gen(static_cast<std::uint64_t>(row), w);
    const bool ok = layout == PageLayout::kNsm ? nsm.Append(tuple)
                                               : pax.Append(tuple);
    if (!ok) {
      seal();
      SMARTSSD_CHECK(layout == PageLayout::kNsm ? nsm.Append(tuple)
                                                : pax.Append(tuple));
    }
  }
  if ((layout == PageLayout::kNsm && nsm.tuple_count() > 0) ||
      (layout == PageLayout::kPax && pax.tuple_count() > 0)) {
    seal();
  }
  table.info = storage::TableInfo{
      .name = std::move(name),
      .schema = schema,
      .layout = layout,
      .first_lpn = 0,
      .page_count = table.pages.size(),
      .tuple_count = static_cast<std::uint64_t>(rows),
      .tuples_per_page = 0};
  table.zone_map = bench::Unwrap(
      storage::ZoneMap::Build(
          table.info,
          [&](std::uint64_t page_index)
              -> Result<std::span<const std::byte>> {
            return std::span<const std::byte>(table.pages[page_index]);
          }),
      "ZoneMap::Build");
  return table;
}

MemTable BuildTable(int columns, PageLayout layout, int rows) {
  Random rng(42);
  return BuildMemTable(
      "t", tpch::SyntheticSchema(columns), layout, rows,
      [&](std::uint64_t row, storage::TupleWriter& w) {
        for (int c = 0; c < columns; ++c) {
          if (c == 1) {
            // Clustered predicate column: a row-proportional ramp over
            // the same value range the uniform columns draw from, so a
            // selectivity-s predicate still passes ~s of the rows but
            // the matches concentrate in the first ~s of the pages.
            w.SetInt32(c, static_cast<std::int32_t>(
                              (static_cast<std::int64_t>(row) *
                               kValueRange) /
                              rows));
          } else {
            w.SetInt32(c,
                       static_cast<std::int32_t>(rng.Uniform(kValueRange)));
          }
        }
      });
}

// PART rows for the Q14-shaped join: p_partkey is dense 1..N, and one
// p_type in six starts with "PROMO".
constexpr int kPartRows = kRows / 30;

MemTable BuildPart() {
  Random rng(43);
  return BuildMemTable(
      "part", tpch::PartSchema(), PageLayout::kPax, kPartRows,
      [&](std::uint64_t row, storage::TupleWriter& w) {
        w.SetInt32(tpch::kPPartKey, static_cast<std::int32_t>(row + 1));
        w.SetChar(tpch::kPType,
                  rng.Uniform(6) == 0 ? "PROMO PLATED TIN"
                                      : "STANDARD PLATED TIN");
      });
}

// LINEITEM rows with the columns Q1 and Q14 read: l_shipdate ramps
// across the table (a date-ordered fact table), the flags follow
// TPC-H's correlation with the dates (four Q1 groups), and l_partkey
// is a uniform FK into PART.
MemTable BuildLineitem() {
  Random rng(44);
  constexpr std::int32_t kCurrentDate = tpch::DateToDays(1995, 6, 17);
  return BuildMemTable(
      "lineitem", tpch::LineitemSchema(), PageLayout::kPax, kRows,
      [&](std::uint64_t row, storage::TupleWriter& w) {
        const std::int32_t shipdate = static_cast<std::int32_t>(
            tpch::kMinShipDate +
            static_cast<std::int64_t>(row) *
                (tpch::kMaxShipDate - tpch::kMinShipDate) / kRows);
        const std::int32_t quantity =
            static_cast<std::int32_t>(rng.Uniform(50) + 1);
        w.SetInt32(tpch::kLPartKey,
                   static_cast<std::int32_t>(rng.Uniform(kPartRows) + 1));
        w.SetInt32(tpch::kLQuantity, quantity);
        w.SetInt64(tpch::kLExtendedPrice,
                   quantity * static_cast<std::int64_t>(
                                  90000 + rng.Uniform(100000)));
        w.SetInt32(tpch::kLDiscount,
                   static_cast<std::int32_t>(rng.Uniform(11)));
        w.SetInt32(tpch::kLTax, static_cast<std::int32_t>(rng.Uniform(9)));
        const std::int32_t receiptdate =
            shipdate + static_cast<std::int32_t>(rng.Uniform(30)) + 1;
        if (receiptdate <= kCurrentDate) {
          w.SetChar(tpch::kLReturnFlag, rng.Uniform(2) == 0 ? "R" : "A");
        } else {
          w.SetChar(tpch::kLReturnFlag, "N");
        }
        w.SetChar(tpch::kLLineStatus, shipdate > kCurrentDate ? "O" : "F");
        w.SetInt32(tpch::kLShipDate, shipdate);
        w.SetInt32(tpch::kLReceiptDate, receiptdate);
      });
}

// SELECT SUM(col2) FROM t WHERE col1 < threshold — the scan-aggregate
// shape of the paper's Q6-style workloads.
exec::QuerySpec ScanAggSpec(double selectivity) {
  exec::QuerySpec spec;
  spec.name = "wall-scan-agg";
  spec.table = "t";
  spec.predicate = ex::Lt(
      ex::Col(1),
      ex::Lit(static_cast<std::int64_t>(selectivity * kValueRange)));
  spec.aggregates.push_back(
      {exec::AggSpec::Fn::kSum, ex::Col(2), "sum_v"});
  return spec;
}

struct KernelRun {
  double seconds = 0;
  double rows_per_sec = 0;
  std::vector<std::byte> out;  // every emitted row, Finish's included
  exec::OpCounts counts;
};

struct RunOptions {
  exec::KernelMode mode = exec::KernelMode::kVectorized;
  expr::KernelIsa isa = expr::KernelIsa::kScalarIsa;
  bool use_zone_map = false;
};

// `join` is the sealed inner table of a join query, else nullptr.
KernelRun RunKernel(const exec::BoundQuery& bound, const MemTable& table,
                    const exec::JoinHashTable* join,
                    const RunOptions& options) {
  const expr::ScopedKernelIsa scoped_isa(options.isa);
  const storage::ZoneMap* map =
      options.use_zone_map ? &*table.zone_map : nullptr;
  KernelRun run;
  auto pass = [&]() {
    std::vector<std::byte> out;
    exec::OpCounts counts;
    exec::PageProcessor processor(&bound, join, options.mode);
    if (options.mode == exec::KernelMode::kVectorized) {
      // A silent fallback would time the scalar kernel twice and
      // report a bogus 1.0x — refuse to measure it.
      SMARTSSD_CHECK(processor.kernel_mode() ==
                     exec::KernelMode::kVectorized);
    }
    processor.SetZoneMap(map);
    for (std::size_t p = 0; p < table.pages.size(); ++p) {
      bench::Check(processor.ProcessPage(table.pages[p], p, &counts, &out),
                   "ProcessPage");
    }
    bench::Check(processor.Finish(&counts, &out), "Finish");
    run.out = std::move(out);
    run.counts = counts;
  };
  const bench::WallMeasurement m = bench::MeasureWall(
      static_cast<std::uint64_t>(kRows), kRepeats, pass);
  run.seconds = m.seconds;
  run.rows_per_sec = m.rows_per_sec;
  return run;
}

struct Config {
  std::string name;
  double selectivity;
  int columns;
  PageLayout layout;
};

const char* CompilerId() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter json("wall_kernels", argc, argv);
  bench::PrintHeader(
      "Wall-clock kernel throughput: scalar vs vectorized vs SIMD",
      "raw-speed pass; simulator efficiency, not device time");

  const expr::KernelIsa best_isa = expr::DetectKernelIsa();
  json.SetMetadata(
      {{"compiler", CompilerId()},
       {"build_type", SMARTSSD_BUILD_TYPE},
       {"kernel_isa_detected", expr::KernelIsaName(best_isa)},
       {"kernel_isa_active",
        expr::KernelIsaName(expr::CurrentKernelIsa())},
       {"hardware_threads",
        std::to_string(std::thread::hardware_concurrency())}});

  std::printf("%-26s %12s %12s %12s %12s %8s\n", "config", "scalar r/s",
              "vector r/s", "+simd r/s", "+simd+zm", "zm-gain");
  bench::PrintRule();

  // Times one query over `table` on every kernel build-up and prints
  // and records the row.
  auto measure = [&](const std::string& name, const exec::BoundQuery& bound,
                     const MemTable& table,
                     const exec::JoinHashTable* join) {
    const KernelRun scalar = RunKernel(
        bound, table, join, {.mode = exec::KernelMode::kScalar});
    const KernelRun vectorized = RunKernel(
        bound, table, join, {.isa = expr::KernelIsa::kScalarIsa});
    const KernelRun simd = RunKernel(bound, table, join, {.isa = best_isa});
    const KernelRun simd_zm = RunKernel(
        bound, table, join, {.isa = best_isa, .use_zone_map = true});

    // Every kernel build-up must agree with the interpreter bit for bit
    // in results AND operation counts — the count identity is what
    // keeps virtual time independent of all of this machinery.
    for (const KernelRun* run : {&vectorized, &simd, &simd_zm}) {
      SMARTSSD_CHECK(scalar.out == run->out);
      SMARTSSD_CHECK(scalar.counts == run->counts);
    }

    auto speedup_over = [](const KernelRun& num, const KernelRun& den) {
      return den.rows_per_sec > 0 ? num.rows_per_sec / den.rows_per_sec : 0;
    };
    std::printf("%-26s %12.3g %12.3g %12.3g %12.3g %7.2fx\n", name.c_str(),
                scalar.rows_per_sec, vectorized.rows_per_sec,
                simd.rows_per_sec, simd_zm.rows_per_sec,
                speedup_over(simd_zm, vectorized));
    json.AddWall(name + " scalar", scalar.seconds, NAN, NAN,
                 scalar.rows_per_sec);
    json.AddWall(name + " vectorized", vectorized.seconds, NAN,
                 speedup_over(vectorized, scalar), vectorized.rows_per_sec);
    json.AddWall(name + " vectorized+simd", simd.seconds, NAN,
                 speedup_over(simd, vectorized), simd.rows_per_sec);
    json.AddWall(name + " vectorized+simd+zm", simd_zm.seconds, NAN,
                 speedup_over(simd_zm, vectorized), simd_zm.rows_per_sec);
  };

  std::vector<Config> configs;
  for (const double sel : {0.01, 0.10, 0.50, 0.90}) {
    for (const PageLayout layout : {PageLayout::kNsm, PageLayout::kPax}) {
      char name[64];
      std::snprintf(name, sizeof(name), "scan-agg sel=%.0f%% w=8 %s",
                    sel * 100, layout == PageLayout::kNsm ? "nsm" : "pax");
      configs.push_back({name, sel, 8, layout});
    }
  }
  for (const int columns : {4, 32}) {
    for (const PageLayout layout : {PageLayout::kNsm, PageLayout::kPax}) {
      char name[64];
      std::snprintf(name, sizeof(name), "scan-agg sel=10%% w=%d %s",
                    columns, layout == PageLayout::kNsm ? "nsm" : "pax");
      configs.push_back({name, 0.10, columns, layout});
    }
  }
  for (const Config& config : configs) {
    const MemTable table =
        BuildTable(config.columns, config.layout, kRows);
    storage::Catalog catalog(100000);
    bench::Check(catalog.AddTable(table.info), "AddTable");
    const exec::QuerySpec spec = ScanAggSpec(config.selectivity);
    auto bound = exec::Bind(spec, catalog);
    bench::Check(bound.status(), "Bind");
    measure(config.name, *bound, table, nullptr);
  }

  {
    const MemTable lineitem = BuildLineitem();
    const MemTable part = BuildPart();
    storage::Catalog catalog(100000);
    bench::Check(catalog.AddTable(lineitem.info), "AddTable");
    bench::Check(catalog.AddTable(part.info), "AddTable");

    const exec::QuerySpec q1 = tpch::Q1Spec("lineitem");
    auto q1_bound = exec::Bind(q1, catalog);
    bench::Check(q1_bound.status(), "Bind");
    measure("q1-groupby pax", *q1_bound, lineitem, nullptr);

    const exec::QuerySpec q14 = tpch::Q14Spec("lineitem", "part");
    auto q14_bound = exec::Bind(q14, catalog);
    bench::Check(q14_bound.status(), "Bind");
    exec::OpCounts build_counts;
    const exec::JoinHashTable join = bench::Unwrap(
        exec::BuildJoinHashTable(
            *q14_bound,
            [&](std::uint64_t page_index)
                -> Result<std::span<const std::byte>> {
              return std::span<const std::byte>(part.pages[page_index]);
            },
            &build_counts),
        "BuildJoinHashTable");
    measure("q14-probe pax", *q14_bound, lineitem, &join);
  }

  bench::PrintRule();
  std::printf(
      "rows per config: %d; best of %d repeats after warmup; "
      "kernel isa: %s (detected %s)\n",
      kRows, kRepeats, expr::KernelIsaName(expr::CurrentKernelIsa()),
      expr::KernelIsaName(best_isa));
  json.Write();
  return 0;
}
