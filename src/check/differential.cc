#include "check/differential.h"

#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "check/invariants.h"
#include "check/result_compare.h"
#include "check/spec_print.h"
#include "check/table_gen.h"
#include "check/write_phase.h"
#include "engine/executor.h"
#include "engine/fleet.h"
#include "expr/kernel_isa.h"
#include "sim/fault_injector.h"

namespace smartssd::check {

namespace {

using engine::Database;
using engine::DatabaseOptions;
using engine::ExecutionTarget;
using engine::Fleet;
using engine::QueryExecutor;

// Fault kinds safe for differential runs: each either recovers inside
// the session (stall retry) or kills it and triggers the byte-identical
// host fallback. kTransferError is excluded — it also fires on the
// host path, where there is nothing to fall back to.
constexpr sim::FaultKind kFaultRotation[] = {
    sim::FaultKind::kGetStall,           sim::FaultKind::kDeviceReset,
    sim::FaultKind::kOpenRejected,       sim::FaultKind::kResultQueueOverflow,
    sim::FaultKind::kUncorrectableRead,
};

// A deliberately tiny, GC-prone device for the write-phase database:
// 256 physical pages with 25% over-provisioning, so the write phases'
// out-of-place page writes drain the free lists and force the garbage
// collector to actually run under the differential comparisons.
DatabaseOptions GcProneOptions(std::uint64_t buffer_pool_pages) {
  DatabaseOptions options = DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = buffer_pool_pages;
  options.ssd.geometry.channels = 2;
  options.ssd.geometry.chips_per_channel = 2;
  options.ssd.geometry.blocks_per_chip = 8;
  options.ssd.geometry.pages_per_block = 8;
  options.ssd.geometry.page_size_bytes = 2048;
  options.ssd.dram.capacity_bytes = 64 * kMiB;
  options.ssd.ftl.over_provisioning = 0.25;
  options.ssd.ftl.gc_low_watermark_blocks = 2;
  return options;
}

// Loads F (with extent headroom for the sweep's appends) and D into a
// write-path database. Same pure cell generators as LoadTables.
Status LoadWritePathTables(Database& db, const TableGenConfig& config,
                           std::uint64_t reserve_pages) {
  const storage::Schema outer = OuterSchema();
  const storage::Schema inner = InnerSchema();
  auto fill = [](const storage::Schema& schema,
                 auto value) -> storage::RowGenerator {
    return [&schema, value](std::uint64_t row,
                            storage::TupleWriter& writer) {
      for (int c = 0; c < schema.num_columns(); ++c) {
        const std::int64_t v = value(row, c);
        if (schema.column(c).type == storage::ColumnType::kInt64) {
          writer.SetInt64(c, v);
        } else {
          writer.SetInt32(c, static_cast<std::int32_t>(v));
        }
      }
    };
  };
  SMARTSSD_RETURN_IF_ERROR(
      db.LoadTable(kOuterTable, outer, storage::PageLayout::kNsm,
                   config.outer_rows,
                   fill(outer,
                        [&config](std::uint64_t row, int col) {
                          return OuterValue(config, row, col);
                        }),
                   reserve_pages)
          .status());
  SMARTSSD_RETURN_IF_ERROR(
      db.LoadTable(kInnerTable, inner, storage::PageLayout::kNsm,
                   config.inner_rows,
                   fill(inner,
                        [&config](std::uint64_t row, int col) {
                          return InnerValue(config, row, col);
                        }))
          .status());
  return Status::OK();
}

sim::FaultSchedule MakeSchedule(sim::FaultKind kind) {
  sim::FaultSchedule schedule;
  if (kind == sim::FaultKind::kUncorrectableRead) {
    // Fires on the session's second flash page read, so it is spent
    // before a host fallback re-reads the same pages.
    schedule.faults.push_back(sim::FaultSpec{
        kind, {sim::TriggerUnit::kPagesRead, 2}, 1});
  } else {
    // Protocol charge points check virtual time without advancing
    // counters; `at == 0` arms the fault for the first event.
    schedule.faults.push_back(
        sim::FaultSpec{kind, {sim::TriggerUnit::kSimTime, 0}, 1});
  }
  return schedule;
}

// One seed's worth of databases: the same relation loaded into every
// configuration once, then reused for all the seed's specs.
class DifferentialRunner {
 public:
  DifferentialRunner(std::uint64_t seed, const HarnessOptions& options)
      : seed_(seed), options_(options) {
    gen_ = options.gen;
    gen_.tables.seed = seed;

    DatabaseOptions base = DatabaseOptions::PaperSmartSsd();
    base.buffer_pool_pages = options.buffer_pool_pages;

    // The ground truth runs the interpreted scalar kernel while every
    // other config runs the default vectorized one, so each of the 11
    // comparisons is also a scalar-vs-vectorized differential (results
    // AND OpCounts must match byte for byte).
    DatabaseOptions ref = base;
    ref.kernel = exec::KernelMode::kScalar;

    db_ref_ = std::make_unique<Database>(ref);
    // Identical to the scalar reference except for the kernel: the one
    // config pair that is count-comparable (same pages, no pruning), so
    // it proves the vectorized kernel charges the exact same OpCounts.
    db_ref_vec_ = std::make_unique<Database>(base);
    db_nsm_ = std::make_unique<Database>(base);
    db_pax_ = std::make_unique<Database>(base);

    // Spill axis: tiny join budgets against the ~22 KiB inner hash
    // table force 2-pass (12 KiB) and 3-pass (4 KiB) hybrid joins. No
    // zone map and NSM layout, so these configs read the exact pages
    // the reference does — results AND OpCounts must both match it
    // byte-for-byte (spilling is pure overhead, never semantics).
    DatabaseOptions spill2 = base;
    spill2.join_spill.budget_bytes = 12 * 1024;
    DatabaseOptions spill3 = base;
    spill3.join_spill.budget_bytes = 4096;
    db_spill2_ = std::make_unique<Database>(spill2);
    db_spill3_ = std::make_unique<Database>(spill3);

    // Placement axis: the adaptive policy fragments each eligible scan
    // across the host and device halves and merges the partials. On an
    // unpruned NSM database its OpCounts must equal the monolithic
    // reference exactly (fragmentation is pure scheduling, never
    // semantics); on PAX with a zone map it is compared rows-only,
    // like the other pruned configs.
    DatabaseOptions adapt_opts = base;
    adapt_opts.placement = engine::PlacementPolicyKind::kAdaptive;
    db_adapt_nsm_ = std::make_unique<Database>(adapt_opts);
    db_adapt_pax_ = std::make_unique<Database>(adapt_opts);
    SMARTSSD_CHECK(
        LoadTables(*db_ref_, gen_.tables, storage::PageLayout::kNsm).ok());
    SMARTSSD_CHECK(
        LoadTables(*db_ref_vec_, gen_.tables, storage::PageLayout::kNsm)
            .ok());
    SMARTSSD_CHECK(
        LoadTables(*db_nsm_, gen_.tables, storage::PageLayout::kNsm).ok());
    SMARTSSD_CHECK(
        LoadTables(*db_pax_, gen_.tables, storage::PageLayout::kPax).ok());
    SMARTSSD_CHECK(
        LoadTables(*db_spill2_, gen_.tables, storage::PageLayout::kNsm)
            .ok());
    SMARTSSD_CHECK(
        LoadTables(*db_spill3_, gen_.tables, storage::PageLayout::kNsm)
            .ok());
    SMARTSSD_CHECK(
        LoadTables(*db_adapt_nsm_, gen_.tables, storage::PageLayout::kNsm)
            .ok());
    SMARTSSD_CHECK(
        LoadTables(*db_adapt_pax_, gen_.tables, storage::PageLayout::kPax)
            .ok());
    // The reference database keeps NO zone map: it is the unpruned
    // ground truth a broken pruning path must disagree with.
    SMARTSSD_CHECK(db_nsm_->BuildZoneMap(kOuterTable).ok());
    SMARTSSD_CHECK(db_pax_->BuildZoneMap(kOuterTable).ok());
    SMARTSSD_CHECK(db_adapt_pax_->BuildZoneMap(kOuterTable).ok());

    // Fleet shapes: uniform 1-, 3- and 4-device fleets and a
    // heterogeneous 2-device fleet (device 1 gets a weaker embedded CPU
    // — results must not care how fast a partition computed). The
    // per-device fault seeds derive from the spec seed, so replay lines
    // stay one-line reproducible.
    fleet1_ = std::make_unique<Fleet>(1, base, /*fleet_seed=*/seed);
    fleet3_ = std::make_unique<Fleet>(3, base, /*fleet_seed=*/seed);
    fleet4_ = std::make_unique<Fleet>(4, base, /*fleet_seed=*/seed);
    DatabaseOptions slow = base;
    slow.ssd.embedded_cpu.cores = 2;
    slow.ssd.embedded_cpu.clock_hz = 300ull * 1000 * 1000;
    fleet_het2_ = std::make_unique<Fleet>(
        std::vector<DatabaseOptions>{base, slow}, /*fleet_seed=*/seed);
    for (Fleet* fleet : {fleet1_.get(), fleet3_.get(), fleet4_.get()}) {
      SMARTSSD_CHECK(
          LoadTablesFleet(*fleet, gen_.tables, storage::PageLayout::kNsm)
              .ok());
    }
    SMARTSSD_CHECK(LoadTablesFleet(*fleet_het2_, gen_.tables,
                                   storage::PageLayout::kPax)
                       .ok());
    for (Fleet* fleet :
         {fleet1_.get(), fleet3_.get(), fleet4_.get(), fleet_het2_.get()}) {
      SMARTSSD_CHECK(fleet->BuildZoneMaps(kOuterTable).ok());
    }

    // Write path: one GC-prone database, plus the in-memory oracle its
    // stored bytes are verified against after every applied phase.
    if (options_.with_write_phase) {
      const std::uint64_t reserve_rows =
          static_cast<std::uint64_t>(
              options.specs_per_seed < 1 ? 1 : options.specs_per_seed) *
          kMaxWritePhaseAppendRows;
      // Conservative 40-byte tuples in 2 KiB pages.
      const std::uint64_t reserve_pages = reserve_rows / 40 + 2;
      db_gc_greedy_ = std::make_unique<Database>(
          GcProneOptions(options.buffer_pool_pages));
      SMARTSSD_CHECK(
          LoadWritePathTables(*db_gc_greedy_, gen_.tables, reserve_pages)
              .ok());
      SMARTSSD_CHECK(db_gc_greedy_->BuildZoneMap(kOuterTable).ok());
      oracle_.emplace(gen_.tables);
      db_gc_greedy_->AttachTracer(&tracer_gcg_, "gcg-dev", "gcg-host");
    }

    db_ref_->AttachTracer(&tracer_ref_, "ref-dev", "ref-host");
    db_ref_vec_->AttachTracer(&tracer_ref_vec_, "refv-dev", "refv-host");
    db_nsm_->AttachTracer(&tracer_nsm_, "nsm-dev", "nsm-host");
    db_pax_->AttachTracer(&tracer_pax_, "pax-dev", "pax-host");
    db_spill2_->AttachTracer(&tracer_spill2_, "sp2-dev", "sp2-host");
    db_spill3_->AttachTracer(&tracer_spill3_, "sp3-dev", "sp3-host");
    db_adapt_nsm_->AttachTracer(&tracer_adapt_nsm_, "adn-dev", "adn-host");
    db_adapt_pax_->AttachTracer(&tracer_adapt_pax_, "adp-dev", "adp-host");
    fleet1_->AttachTracer(&tracer_fleet1_);
    fleet3_->AttachTracer(&tracer_fleet3_);
    fleet4_->AttachTracer(&tracer_fleet4_);
    fleet_het2_->AttachTracer(&tracer_fleet2_);
  }

  int executions() const { return executions_; }
  int fallbacks() const { return fallbacks_; }

  // Runs `spec` through the whole matrix; the first divergence (or
  // error, or invariant violation) is returned as (config, message).
  std::optional<std::pair<std::string, std::string>> CheckSpec(
      const exec::QuerySpec& spec, int index) {
    // Fast-forward any pending write phases up to this spec (apply-once:
    // Minimize's repeated CheckSpec calls see the state they already
    // saw). Phases are pure in (seed, phase_index), which is what keeps
    // ReplaySpec(seed, index) landing on the sweep's exact relation.
    if (options_.with_write_phase) {
      while (next_write_index_ <= index) {
        const WritePhaseSpec phase =
            GenerateWritePhase(seed_, next_write_index_, gen_.tables);
        if (Status s = ApplyWritePhase(*db_gc_greedy_, gen_.tables, phase);
            !s.ok()) {
          return std::make_pair(std::string("write-phase"), s.ToString());
        }
        if (Status s = phase.enabled
                           ? CheckZoneMapsMatchStorage(*db_gc_greedy_)
                           : Status::OK();
            !s.ok()) {
          return std::make_pair(std::string("write-phase-zonemap"),
                                s.ToString());
        }
        oracle_->Apply(phase);
        ++next_write_index_;
      }
      // Cell-exact readback: whatever GC relocated, the stored relation
      // must equal the oracle.
      if (Status s = oracle_->Verify(*db_gc_greedy_); !s.ok()) {
        return std::make_pair(std::string("gcgreedy-oracle"),
                              s.ToString());
      }
    }

    auto ref = RunSingle(*db_ref_, tracer_ref_, spec,
                         ExecutionTarget::kHost, "ref-nsm-host", nullptr);
    if (!ref.ok()) {
      return std::make_pair(std::string("ref-nsm-host"),
                            ref.status().ToString());
    }

    // The vectorized twin of the reference: same unpruned NSM database,
    // batch kernel. Results AND operation counts must match the scalar
    // interpreter exactly — this is the count-identity proof; the other
    // configs legitimately differ in pages/tuples (pruning, layout).
    {
      auto vec = RunSingle(*db_ref_vec_, tracer_ref_vec_, spec,
                           ExecutionTarget::kHost, "ref-nsm-host-vec",
                           nullptr);
      if (!vec.ok()) {
        return std::make_pair(std::string("ref-nsm-host-vec"),
                              vec.status().ToString());
      }
      if (Status diff = CompareOutputs(*ref, *vec); !diff.ok()) {
        return std::make_pair(std::string("ref-nsm-host-vec"),
                              diff.ToString());
      }
      if (Status diff = CompareCounts(*ref, *vec); !diff.ok()) {
        return std::make_pair(std::string("ref-nsm-host-vec"),
                              diff.ToString());
      }
    }

    // ISA axis: when this machine's best kernel ISA is not plain scalar
    // code, re-run the vectorized twin with the SIMD lanes forced off.
    // Configs run strictly sequentially, so scoping the process-global
    // ISA around one run is safe. Proves the SIMD compare/compact/
    // gather kernels are bit-identical to their scalar fallbacks on
    // whatever CPU the sweep happens to run on.
    if (expr::DetectKernelIsa() != expr::KernelIsa::kScalarIsa) {
      const expr::ScopedKernelIsa force_scalar(expr::KernelIsa::kScalarIsa);
      auto vec = RunSingle(*db_ref_vec_, tracer_ref_vec_, spec,
                           ExecutionTarget::kHost,
                           "ref-nsm-host-vec-scalar-isa", nullptr);
      if (!vec.ok()) {
        return std::make_pair(std::string("ref-nsm-host-vec-scalar-isa"),
                              vec.status().ToString());
      }
      if (Status diff = CompareOutputs(*ref, *vec); !diff.ok()) {
        return std::make_pair(std::string("ref-nsm-host-vec-scalar-isa"),
                              diff.ToString());
      }
      if (Status diff = CompareCounts(*ref, *vec); !diff.ok()) {
        return std::make_pair(std::string("ref-nsm-host-vec-scalar-isa"),
                              diff.ToString());
      }
    }

    struct SingleConfig {
      const char* name;
      Database* db;
      obs::Tracer* tracer;
      ExecutionTarget target;
      std::optional<sim::FaultKind> fault;
      // Spill configs read the same unpruned NSM pages the reference
      // does, so their OpCounts must be identical too: a hybrid join
      // that charges its partitioning or spill I/O into the counts (or
      // drops/doubles a probe across passes) fails here even when the
      // output bytes happen to survive.
      bool compare_counts = false;
      // Route through the database's placement policy (ExecuteAuto)
      // instead of a pinned target; `target` is ignored then.
      bool auto_target = false;
    };
    std::vector<SingleConfig> singles = {
        {"nsm-host", db_nsm_.get(), &tracer_nsm_, ExecutionTarget::kHost,
         std::nullopt},
        {"nsm-smart", db_nsm_.get(), &tracer_nsm_,
         ExecutionTarget::kSmartSsd, std::nullopt},
        {"pax-host", db_pax_.get(), &tracer_pax_, ExecutionTarget::kHost,
         std::nullopt},
        {"pax-smart", db_pax_.get(), &tracer_pax_,
         ExecutionTarget::kSmartSsd, std::nullopt},
        {"nsm-spill2-smart", db_spill2_.get(), &tracer_spill2_,
         ExecutionTarget::kSmartSsd, std::nullopt, true},
        {"nsm-spill3-smart", db_spill3_.get(), &tracer_spill3_,
         ExecutionTarget::kSmartSsd, std::nullopt, true},
        // The adaptive policy splits the scan across both sides and
        // merges partials: results AND OpCounts must equal the unpruned
        // monolithic reference exactly. Specs a split cannot serve
        // (joins, top-N, single-page tables) run whole, so every
        // generated spec still runs — and still has to match.
        {"nsm-adaptive-smart", db_adapt_nsm_.get(), &tracer_adapt_nsm_,
         ExecutionTarget::kHost, std::nullopt, true, true},
        // The same over PAX + zone map: rows must match the ground
        // truth.
        {"pax-adaptive-smart", db_adapt_pax_.get(), &tracer_adapt_pax_,
         ExecutionTarget::kHost, std::nullopt, false, true},
    };
    if (options_.with_faults) {
      const std::size_t n = std::size(kFaultRotation);
      singles.push_back({"nsm-smart-fault", db_nsm_.get(), &tracer_nsm_,
                         ExecutionTarget::kSmartSsd,
                         kFaultRotation[static_cast<std::size_t>(index) % n]});
      singles.push_back(
          {"pax-smart-fault", db_pax_.get(), &tracer_pax_,
           ExecutionTarget::kSmartSsd,
           kFaultRotation[(static_cast<std::size_t>(index) + 2) % n]});
      // A session dying mid-spill must release its flash extents and
      // fall back to a byte-identical host join (the host rerun scans
      // the same unpruned pages, so counts stay comparable).
      singles.push_back(
          {"nsm-spill2-smart-fault", db_spill2_.get(), &tracer_spill2_,
           ExecutionTarget::kSmartSsd,
           kFaultRotation[(static_cast<std::size_t>(index) + 1) % n], true});
      singles.push_back(
          {"nsm-spill3-smart-fault", db_spill3_.get(), &tracer_spill3_,
           ExecutionTarget::kSmartSsd,
           kFaultRotation[(static_cast<std::size_t>(index) + 3) % n], true});
    }
    for (const SingleConfig& config : singles) {
      sim::FaultSchedule schedule;
      if (config.fault.has_value()) schedule = MakeSchedule(*config.fault);
      auto out = RunSingle(*config.db, *config.tracer, spec, config.target,
                           config.name,
                           config.fault.has_value() ? &schedule : nullptr,
                           config.auto_target);
      if (!out.ok()) {
        return std::make_pair(std::string(config.name),
                              out.status().ToString());
      }
      if (Status diff = CompareOutputs(*ref, *out); !diff.ok()) {
        return std::make_pair(std::string(config.name),
                              diff.ToString());
      }
      if (config.compare_counts) {
        if (Status diff = CompareCounts(*ref, *out); !diff.ok()) {
          return std::make_pair(std::string(config.name),
                                diff.ToString());
        }
      }
    }

    // Fleet scatter-gather: every shape must reproduce the single-device
    // ground truth byte-for-byte — healthy, with a rotating fault on a
    // rotating device (per-partition host fallback), and with one
    // device's breaker pre-tripped (breaker-open re-dispatch).
    struct FleetConfig {
      const char* name;
      Fleet* fleet;
      obs::Tracer* tracer;
      std::optional<sim::FaultKind> fault;
      bool pretrip_breaker;
    };
    std::vector<FleetConfig> fleets = {
        {"fleet1-nsm-smart", fleet1_.get(), &tracer_fleet1_, std::nullopt,
         false},
        {"fleet3-nsm-smart", fleet3_.get(), &tracer_fleet3_, std::nullopt,
         false},
        {"fleet4-nsm-smart", fleet4_.get(), &tracer_fleet4_, std::nullopt,
         false},
        {"fleet2het-pax-smart", fleet_het2_.get(), &tracer_fleet2_,
         std::nullopt, false},
    };
    if (options_.with_faults) {
      const std::size_t n = std::size(kFaultRotation);
      fleets.push_back({"fleet3-nsm-smart-fault", fleet3_.get(),
                        &tracer_fleet3_,
                        kFaultRotation[(static_cast<std::size_t>(index) + 1) % n],
                        false});
      fleets.push_back({"fleet2het-pax-smart-fault", fleet_het2_.get(),
                        &tracer_fleet2_,
                        kFaultRotation[(static_cast<std::size_t>(index) + 3) % n],
                        false});
      fleets.push_back({"fleet3-nsm-smart-redispatch", fleet3_.get(),
                        &tracer_fleet3_, std::nullopt, true});
    }
    for (const FleetConfig& config : fleets) {
      auto out = RunFleet(*config.fleet, *config.tracer, spec, config.name,
                          config.fault, config.pretrip_breaker, index);
      if (!out.ok()) {
        return std::make_pair(std::string(config.name),
                              out.status().ToString());
      }
      if (Status diff = CompareOutputs(*ref, *out); !diff.ok()) {
        return std::make_pair(std::string(config.name), diff.ToString());
      }
    }

    // Write-path pair. The GC database holds a different relation from
    // the reference (phases updated and appended rows), so its ground
    // truth is its own host scan, which pushdown must match
    // byte-for-byte.
    if (options_.with_write_phase) {
      auto gc_ref =
          RunSingle(*db_gc_greedy_, tracer_gcg_, spec,
                    ExecutionTarget::kHost, "gcgreedy-nsm-host", nullptr);
      if (!gc_ref.ok()) {
        return std::make_pair(std::string("gcgreedy-nsm-host"),
                              gc_ref.status().ToString());
      }
      auto out =
          RunSingle(*db_gc_greedy_, tracer_gcg_, spec,
                    ExecutionTarget::kSmartSsd, "gcgreedy-nsm-smart", nullptr);
      if (!out.ok()) {
        return std::make_pair(std::string("gcgreedy-nsm-smart"),
                              out.status().ToString());
      }
      if (Status diff = CompareOutputs(*gc_ref, *out); !diff.ok()) {
        return std::make_pair(std::string("gcgreedy-nsm-smart"),
                              diff.ToString());
      }
    }
    return std::nullopt;
  }

  // Component-dropping minimization: repeatedly remove pieces of the
  // spec while it still fails, restoring each piece that turns out to
  // be load-bearing. Expressions are move-only (no Clone()), so the
  // minimizer mutates in place and moves components back on a miss.
  void Minimize(exec::QuerySpec& spec, int index) {
    bool changed = true;
    while (changed) {
      changed = false;

      if (spec.top_n.has_value()) {
        std::optional<exec::TopNSpec> saved;
        std::swap(saved, spec.top_n);
        if (StillFails(spec, index)) {
          changed = true;
        } else {
          std::swap(saved, spec.top_n);
        }
      }
      if (!spec.group_by.empty()) {
        std::vector<int> saved;
        std::swap(saved, spec.group_by);
        if (StillFails(spec, index)) {
          changed = true;
        } else {
          std::swap(saved, spec.group_by);
        }
      }
      if (spec.aggregates.size() > 1) {
        std::vector<exec::AggSpec> tail;
        for (std::size_t i = 1; i < spec.aggregates.size(); ++i) {
          tail.push_back(std::move(spec.aggregates[i]));
        }
        spec.aggregates.resize(1);
        if (StillFails(spec, index)) {
          changed = true;
        } else {
          for (exec::AggSpec& agg : tail) {
            spec.aggregates.push_back(std::move(agg));
          }
        }
      }
      if (spec.predicate != nullptr) {
        expr::ExprPtr saved = std::move(spec.predicate);
        if (StillFails(spec, index)) {
          changed = true;
        } else {
          spec.predicate = std::move(saved);
        }
      }
      if (spec.projection.size() > 1) {
        // Keep the order column (always projection[0] by construction)
        // so a top-N spec stays valid.
        std::vector<int> saved = spec.projection;
        spec.projection.resize(1);
        if (StillFails(spec, index)) {
          changed = true;
        } else {
          spec.projection = std::move(saved);
        }
      }
      if (spec.join.has_value()) {
        std::optional<exec::JoinSpec> saved_join;
        std::swap(saved_join, spec.join);
        const exec::PipelineOrder saved_order = spec.order;
        spec.order = exec::PipelineOrder::kFilterFirst;
        if (BindsClean(spec) && StillFails(spec, index)) {
          changed = true;
        } else {
          std::swap(saved_join, spec.join);
          spec.order = saved_order;
        }
      }
    }
  }

 private:
  bool BindsClean(const exec::QuerySpec& spec) {
    return exec::Bind(spec, db_ref_->catalog()).ok();
  }

  bool StillFails(const exec::QuerySpec& spec, int index) {
    return BindsClean(spec) && CheckSpec(spec, index).has_value();
  }

  Result<ExecutionOutput> RunSingle(Database& db, obs::Tracer& tracer,
                                    const exec::QuerySpec& spec,
                                    ExecutionTarget target,
                                    const char* config,
                                    const sim::FaultSchedule* faults,
                                    bool auto_target = false) {
    ++executions_;
    db.ResetForColdRun();
    tracer.Clear();
    if (faults != nullptr && db.ssd() != nullptr) {
      db.ssd()->fault_injector().Load(*faults);
    }
    QueryExecutor executor(&db);
    Result<engine::QueryResult> result =
        auto_target ? executor.ExecuteAuto(spec)
                    : executor.Execute(spec, target);
    if (db.ssd() != nullptr) db.ssd()->fault_injector().Clear();
    SMARTSSD_RETURN_IF_ERROR(result.status());
    if (result->stats.fell_back) ++fallbacks_;
    SMARTSSD_RETURN_IF_ERROR(CheckTraceInvariants(tracer));
    SMARTSSD_RETURN_IF_ERROR(CheckDatabaseInvariants(db));
    return FromQuery(config, std::move(result).value());
  }

  Result<ExecutionOutput> RunFleet(Fleet& fleet, obs::Tracer& tracer,
                                   const exec::QuerySpec& spec,
                                   const char* config,
                                   const std::optional<sim::FaultKind>& fault,
                                   bool pretrip_breaker, int index) {
    ++executions_;
    fleet.ResetForColdRun();
    tracer.Clear();
    // Breaker state is deterministic per run, never carried across
    // specs (a previous spec's faults must not steer this one).
    for (int d = 0; d < fleet.devices(); ++d) {
      fleet.device(d).circuit_breaker().Reset();
    }
    const int target_device = index % fleet.devices();
    if (fault.has_value()) {
      fleet.LoadFaultSchedule(target_device, MakeSchedule(*fault));
    }
    if (pretrip_breaker) {
      // Trip one device's breaker so ExecuteOnFleet re-dispatches its
      // partition to the host path at the query's start — the result
      // must not change by a byte.
      engine::DeviceCircuitBreaker& breaker =
          fleet.device(target_device).circuit_breaker();
      for (std::uint32_t i = 0; i < breaker.config().failure_threshold;
           ++i) {
        breaker.RecordFailure(0, "pretrip");
      }
    }
    Result<engine::FleetQueryResult> result =
        engine::ExecuteOnFleet(fleet, spec, ExecutionTarget::kSmartSsd);
    fleet.ClearFaults();
    SMARTSSD_RETURN_IF_ERROR(result.status());
    for (const engine::QueryStats& stats : result->partition_stats) {
      if (stats.fell_back) ++fallbacks_;
    }
    SMARTSSD_RETURN_IF_ERROR(CheckTraceInvariants(tracer));
    SMARTSSD_RETURN_IF_ERROR(CheckFleetInvariants(fleet));
    return FromFleet(config, std::move(result).value());
  }

  std::uint64_t seed_;
  HarnessOptions options_;
  SpecGenConfig gen_;
  std::unique_ptr<Database> db_ref_;
  std::unique_ptr<Database> db_ref_vec_;
  std::unique_ptr<Database> db_nsm_;
  std::unique_ptr<Database> db_pax_;
  std::unique_ptr<Database> db_spill2_;
  std::unique_ptr<Database> db_spill3_;
  std::unique_ptr<Database> db_adapt_nsm_;
  std::unique_ptr<Database> db_adapt_pax_;
  std::unique_ptr<Fleet> fleet1_;
  std::unique_ptr<Fleet> fleet3_;
  std::unique_ptr<Fleet> fleet4_;
  std::unique_ptr<Fleet> fleet_het2_;
  std::unique_ptr<Database> db_gc_greedy_;
  std::optional<TableOracle> oracle_;
  int next_write_index_ = 0;
  obs::Tracer tracer_gcg_;
  obs::Tracer tracer_ref_;
  obs::Tracer tracer_ref_vec_;
  obs::Tracer tracer_nsm_;
  obs::Tracer tracer_pax_;
  obs::Tracer tracer_spill2_;
  obs::Tracer tracer_spill3_;
  obs::Tracer tracer_adapt_nsm_;
  obs::Tracer tracer_adapt_pax_;
  obs::Tracer tracer_fleet1_;
  obs::Tracer tracer_fleet3_;
  obs::Tracer tracer_fleet4_;
  obs::Tracer tracer_fleet2_;
  int executions_ = 0;
  int fallbacks_ = 0;
};

void RunOneSpec(DifferentialRunner& runner, std::uint64_t seed, int index,
                const SpecGenConfig& gen, const HarnessOptions& options,
                HarnessReport* report) {
  exec::QuerySpec spec = GenerateSpec(seed, index, gen);
  ++report->specs_run;
  auto failure = runner.CheckSpec(spec, index);
  if (!failure.has_value()) return;

  DifferentialFailure record;
  record.seed = seed;
  record.spec_index = index;
  record.config = failure->first;
  record.message = failure->second;
  record.spec_text = SpecToString(spec);
  record.replay = "replay: check::ReplaySpec(/*seed=*/" +
                  std::to_string(seed) + ", /*spec_index=*/" +
                  std::to_string(index) + ")";
  if (options.minimize_failures) {
    runner.Minimize(spec, index);
    record.minimized_spec_text = SpecToString(spec);
  } else {
    record.minimized_spec_text = record.spec_text;
  }
  report->failures.push_back(std::move(record));
}

}  // namespace

std::string HarnessReport::Summary() const {
  std::string out = "seed " + std::to_string(seed) + ": " +
                    std::to_string(specs_run) + " specs, " +
                    std::to_string(executions) + " executions (" +
                    std::to_string(fallbacks) + " host fallbacks), " +
                    std::to_string(failures.size()) + " failure(s)";
  for (const DifferentialFailure& failure : failures) {
    out += "\n  [" + failure.config + " @ spec " +
           std::to_string(failure.spec_index) + "] " + failure.message;
    out += "\n    spec:      " + failure.spec_text;
    out += "\n    minimized: " + failure.minimized_spec_text;
    out += "\n    " + failure.replay;
  }
  return out;
}

HarnessReport RunDifferentialSeed(std::uint64_t seed,
                                  const HarnessOptions& options) {
  HarnessReport report;
  report.seed = seed;
  DifferentialRunner runner(seed, options);
  SpecGenConfig gen = options.gen;
  gen.tables.seed = seed;
  for (int i = 0; i < options.specs_per_seed; ++i) {
    RunOneSpec(runner, seed, i, gen, options, &report);
  }
  report.executions = runner.executions();
  report.fallbacks = runner.fallbacks();
  return report;
}

HarnessReport ReplaySpec(std::uint64_t seed, int spec_index,
                         const HarnessOptions& options) {
  HarnessReport report;
  report.seed = seed;
  DifferentialRunner runner(seed, options);
  SpecGenConfig gen = options.gen;
  gen.tables.seed = seed;
  RunOneSpec(runner, seed, spec_index, gen, options, &report);
  report.executions = runner.executions();
  report.fallbacks = runner.fallbacks();
  return report;
}

}  // namespace smartssd::check
