// diff_fuzz: the differential sweep as a closed loop, one spec after
// another. check::RunDifferentialSeed runs with default HarnessOptions
// over a block of seeds derived from the workload seed; every seed
// builds and destroys its own databases, so host time goes to set-up
// and teardown and to each execution path's fixed cost.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "check/differential.h"
#include "check/table_gen.h"

namespace smartssd::perfbench {
namespace {

constexpr int kBlockSeeds = 64;
constexpr int kCountedSeeds = 4;  // seeds whose counts are reported
constexpr int kSetups = 7;

engine::DatabaseOptions HarnessShape() {
  engine::DatabaseOptions options = engine::DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = check::HarnessOptions{}.buffer_pool_pages;
  return options;
}

std::uint64_t BlockSeed(std::uint64_t seed, int i) {
  // 48 bits keep replay lines short.
  return Mix(Mix(seed) + static_cast<std::uint64_t>(i)) >> 16;
}

}  // namespace

WorkloadResult RunDiffFuzz(const Options& options) {
  WorkloadResult result;
  check::HarnessOptions harness;
  if (options.small) harness.specs_per_seed = 2;
  const int counted = options.small ? 1 : kCountedSeeds;

  // --- Set-up: one database of the harness's shape with its tables,
  // the unit every seed repeats about two dozen times. ---
  std::vector<double> setup_s, load_s, zone_map_s;
  std::uint64_t pages = 0;
  for (int i = 0; i < (options.small ? 1 : kSetups); ++i) {
    const double t0 = HostNow();
    std::unique_ptr<engine::Database> db;
    {
      SpanRecorder::Scope span(Spans(), "engine.Database");
      db = std::make_unique<engine::Database>(HarnessShape());
    }
    const double t1 = HostNow();
    check::TableGenConfig tables = harness.gen.tables;
    tables.seed = BlockSeed(options.seed, i);
    {
      SpanRecorder::Scope span(Spans(), "check.LoadTables");
      const Status status =
          check::LoadTables(*db, tables, storage::PageLayout::kPax);
      if (!status.ok()) NoteFailure(result, "load: " + status.ToString());
    }
    const double t2 = HostNow();
    {
      SpanRecorder::Scope span(Spans(), "engine.BuildZoneMap");
      const Status status = db->BuildZoneMap(check::kOuterTable);
      if (!status.ok()) NoteFailure(result, "zone map: " + status.ToString());
    }
    const double t3 = HostNow();
    setup_s.push_back(t3 - t0);
    load_s.push_back(t2 - t1);
    zone_map_s.push_back(t3 - t2);
    pages = 0;
    for (const char* table : {check::kOuterTable, check::kInnerTable}) {
      Result<const storage::TableInfo*> info = db->catalog().GetTable(table);
      if (info.ok()) pages += info.value()->page_count;
    }
    SpanRecorder::Scope span(Spans(), "engine.~Database");
    db.reset();
  }
  if (result.failed > 0) return result;

  // --- Measured phase: seeds of the block in order until the time is
  // used; a seed run twice must report the same. ---
  std::vector<check::HarnessReport> first;
  std::vector<double> seed_s;
  std::vector<double> rates;  // specs per host second of each seed run
  double measured_s = 0;
  std::uint64_t specs = 0;
  std::uint64_t executions = 0, counted_specs = 0, fallbacks = 0;
  for (int i = 0; measured_s < options.seconds || i < counted; ++i) {
    const int slot = i % kBlockSeeds;
    const std::uint64_t block_seed = BlockSeed(options.seed, slot);
    if (slot == i) Digest(result.arrival_digest, block_seed);
    const double t0 = HostNow();
    check::HarnessReport report = [&] {
      SpanRecorder::Scope span(Spans(), "check.RunDifferentialSeed");
      return check::RunDifferentialSeed(block_seed, harness);
    }();
    const double dt = HostNow() - t0;
    seed_s.push_back(dt);
    rates.push_back(report.specs_run / dt);
    measured_s += dt;
    specs += static_cast<std::uint64_t>(report.specs_run);
    result.attempted += static_cast<std::uint64_t>(harness.specs_per_seed);
    for (const check::DifferentialFailure& f : report.failures) {
      NoteFailure(result, f.config + ": " + f.message + " (" + f.replay + ")");
    }
    const int missing = harness.specs_per_seed - report.specs_run;
    for (int m = 0; m < missing; ++m) {
      NoteFailure(result, "seed " + std::to_string(block_seed) +
                              " ran fewer specs than asked");
    }
    if (i < counted) {
      executions += static_cast<std::uint64_t>(report.executions);
      counted_specs += static_cast<std::uint64_t>(report.specs_run);
      fallbacks += static_cast<std::uint64_t>(report.fallbacks);
    }
    if (slot == i) {
      first.push_back(std::move(report));
    } else {
      const check::HarnessReport& was = first[static_cast<std::size_t>(slot)];
      if (was.executions != report.executions ||
          was.fallbacks != report.fallbacks ||
          was.failures.size() != report.failures.size()) {
        NoteFailure(result, "seed " + std::to_string(block_seed) +
                                " reported differently when run again");
      }
    }
  }

  result.report.push_back(
      "block of " + std::to_string(kBlockSeeds) + " seeds from " +
      std::to_string(BlockSeed(options.seed, 0)) + "; replay a spec with "
      "check::ReplaySpec(seed, index)");

  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {Median(setup_s), "s", "host",
                    "median of " + std::to_string(setup_s.size()) +
                        " harness-shaped database builds"};
  e2e["host_ops_per_s"] = {
      SteadyRate(rates), "1/s", "host",
      std::to_string(specs) + " specs; lower quartile of " +
          std::to_string(seed_s.size()) + " seed runs"};
  result.measured_s_per_op = measured_s / static_cast<double>(specs);

  if (!options.trace) return result;
  auto& l = result.per_layer;
  l["check.seed_host_s"] = {Median(seed_s), "s", "host",
                            "median per RunDifferentialSeed call"};
  l["check.executions_per_spec"] = {
      static_cast<double>(executions) / static_cast<double>(counted_specs),
      "count", "none", "first " + std::to_string(counted) + " seeds"};
  l["check.fallbacks"] = {static_cast<double>(fallbacks), "count", "none",
                          "first " + std::to_string(counted) + " seeds"};
  l["storage.load_s"] = {Median(load_s), "s", "host", "median per set-up"};
  l["storage.zone_map_s"] = {Median(zone_map_s), "s", "host",
                             "median per set-up"};
  l["storage.pages_loaded"] = {static_cast<double>(pages), "count", "none",
                               ""};
  EmitLifecycleProbes(HarnessShape(), l);
  return result;
}

}  // namespace smartssd::perfbench
