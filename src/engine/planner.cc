#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/cost_model.h"
#include "exec/hash_table.h"
#include "exec/hybrid_join.h"

namespace smartssd::engine {

namespace {

// Short-circuit discount: worst-case expression op counts overestimate
// the executed ops because conjunctions bail early; 0.6 matches the
// measured ratio on the paper's five-predicate Q6.
constexpr double kShortCircuitFactor = 0.6;

void ScaleEval(const expr::EvalStats& per_row, double rows, double factor,
               expr::EvalStats* out) {
  auto scale = [&](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * rows *
                                      factor);
  };
  out->comparisons += scale(per_row.comparisons);
  out->arithmetic += scale(per_row.arithmetic);
  out->column_reads += scale(per_row.column_reads);
  out->like_evals += scale(per_row.like_evals);
  out->case_evals += scale(per_row.case_evals);
}

// Streaming buffers, output staging, firmware slack — what the device
// needs on top of the join's resident build side.
constexpr std::uint64_t kJoinDramOverheadBytes = 4ull * 1024 * 1024;

}  // namespace

std::uint64_t ResolveJoinBudget(const Database& db,
                                const exec::BoundQuery& bound) {
  if (!bound.spec->join.has_value() || db.ssd() == nullptr) return 0;
  const std::uint64_t knob = db.options().join_spill.budget_bytes;
  if (knob > 0) return knob;
  const std::uint64_t table_bytes = exec::JoinHashTable::EstimateBytes(
      bound.inner->tuple_count, bound.payload_width);
  const std::uint64_t free = db.ssd()->device_dram_free();
  if (table_bytes + kJoinDramOverheadBytes <= free) return 0;
  // Derived budget: a quarter of what is left after the streaming
  // overhead, so the OPEN grant (budget + buffers + staging) still fits
  // with room for the other session state.
  return free > kJoinDramOverheadBytes
             ? (free - kJoinDramOverheadBytes) / 4
             : 0;
}

PushdownPlanner::PushdownPlanner(Database* db) : db_(db) {
  SMARTSSD_CHECK(db != nullptr);
}

exec::OpCounts PushdownPlanner::EstimateCounts(
    const exec::BoundQuery& bound, const PlanHints& hints,
    exec::OpCounts* build_counts) const {
  const exec::QuerySpec& spec = *bound.spec;
  const double tuples = static_cast<double>(bound.outer->tuple_count);
  const double sel = std::clamp(hints.predicate_selectivity, 0.0, 1.0);

  exec::OpCounts counts;
  counts.pages = bound.outer->page_count;
  counts.tuples = bound.outer->tuple_count;

  if (spec.predicate != nullptr) {
    expr::EvalStats per_row;
    spec.predicate->EstimateOps(&per_row);
    ScaleEval(per_row, tuples, kShortCircuitFactor, &counts.eval);
  }
  const double passing = tuples * (spec.predicate ? sel : 1.0);
  if (spec.join.has_value()) {
    const double probes =
        spec.order == exec::PipelineOrder::kProbeFirst ? tuples : passing;
    counts.probes = static_cast<std::uint64_t>(probes);
    counts.eval.column_reads += counts.probes;  // FK read per probe
  }
  if (!spec.group_by.empty()) {
    counts.group_updates = static_cast<std::uint64_t>(passing);
  }
  if (spec.top_n.has_value()) {
    counts.topn_updates = static_cast<std::uint64_t>(passing);
  }
  for (const exec::AggSpec& agg : spec.aggregates) {
    if (agg.input != nullptr) {
      expr::EvalStats per_row;
      agg.input->EstimateOps(&per_row);
      ScaleEval(per_row, passing, 1.0, &counts.eval);
    }
    counts.agg_updates += static_cast<std::uint64_t>(passing);
  }
  if (!spec.projection.empty()) {
    std::uint32_t width = 0;
    for (const int col : spec.projection) {
      width += bound.combined_schema.column(col).width;
    }
    counts.output_tuples = static_cast<std::uint64_t>(passing);
    if (spec.top_n.has_value()) {
      counts.output_tuples =
          std::min<std::uint64_t>(counts.output_tuples, spec.top_n->limit);
    }
    counts.output_bytes = counts.output_tuples * width;
  } else {
    counts.output_tuples = 1;
    counts.output_bytes = 8ull * spec.aggregates.size();
  }

  if (build_counts != nullptr && spec.join.has_value()) {
    build_counts->pages = bound.inner->page_count;
    build_counts->tuples = bound.inner->tuple_count;
    build_counts->hash_inserts = bound.inner->tuple_count;
    build_counts->eval.column_reads =
        bound.inner->tuple_count *
        (1 + bound.spec->join->inner_payload_cols.size());
  }
  return counts;
}

double PushdownPlanner::EstimateHostSeconds(const exec::BoundQuery& bound,
                                            const PlanHints& hints) const {
  exec::OpCounts build_counts;
  const exec::OpCounts counts = EstimateCounts(bound, hints, &build_counts);
  const std::uint32_t page_size = db_->device().page_size();
  const std::uint64_t inner_pages =
      bound.inner == nullptr ? 0 : bound.inner->page_count;
  const double bytes = static_cast<double>(
      (bound.outer->page_count + inner_pages) * page_size);
  const double io_s =
      bytes /
      static_cast<double>(db_->EstimatedHostReadBytesPerSecond());
  const std::uint64_t cycles =
      exec::Cycles(counts, exec::HostCostParams(bound.outer->layout),
                   bound.outer->schema.num_columns(),
                   bound.inner == nullptr ? 0 : bound.inner->tuple_count) +
      (bound.inner == nullptr
           ? 0
           : exec::Cycles(build_counts,
                          exec::HostCostParams(bound.inner->layout),
                          bound.inner->schema.num_columns(), 0));
  const double cpu_s =
      static_cast<double>(cycles) /
      static_cast<double>(db_->host().total_cycles_per_second());
  return std::max(io_s, cpu_s);
}

double PushdownPlanner::EstimateSmartSeconds(const exec::BoundQuery& bound,
                                             const PlanHints& hints) const {
  if (!db_->smart_capable()) {
    return std::numeric_limits<double>::infinity();
  }
  exec::OpCounts build_counts;
  const exec::OpCounts counts = EstimateCounts(bound, hints, &build_counts);
  const std::uint32_t page_size = db_->device().page_size();
  const std::uint64_t inner_pages =
      bound.inner == nullptr ? 0 : bound.inner->page_count;
  const double bytes = static_cast<double>(
      (bound.outer->page_count + inner_pages) * page_size);
  const double io_s =
      bytes /
      static_cast<double>(db_->EstimatedInternalReadBytesPerSecond());
  const auto& cpu = db_->options().ssd.embedded_cpu;
  const double device_cps =
      static_cast<double>(cpu.cores) * static_cast<double>(cpu.clock_hz);
  const std::uint64_t cycles =
      exec::Cycles(counts, exec::EmbeddedCostParams(bound.outer->layout),
                   bound.outer->schema.num_columns(),
                   bound.inner == nullptr ? 0 : bound.inner->tuple_count) +
      (bound.inner == nullptr
           ? 0
           : exec::Cycles(build_counts,
                          exec::EmbeddedCostParams(bound.inner->layout),
                          bound.inner->schema.num_columns(), 0));
  const double cpu_s = static_cast<double>(cycles) / device_cps;
  const double transfer_s =
      static_cast<double>(counts.output_bytes) /
      static_cast<double>(ssd::EffectiveBytesPerSecond(
          db_->options().ssd.host_interface.standard));
  // Hybrid-join spill traffic: the fraction of the build side that does
  // not fit the budget is written to flash and re-read once per resolve
  // pass, and the deferred probe records make the same round trip. This
  // rides the internal data path, so it adds to the I/O stage.
  double spill_s = 0;
  if (bound.spec->join.has_value()) {
    const std::uint64_t budget = ResolveJoinBudget(*db_, bound);
    const std::uint64_t table_bytes = exec::JoinHashTable::EstimateBytes(
        bound.inner->tuple_count, bound.payload_width);
    if (budget > 0 && table_bytes > budget) {
      const double spilled_fraction =
          1.0 - static_cast<double>(budget) /
                    static_cast<double>(table_bytes);
      const double fanout = static_cast<double>(exec::HybridJoin::kFanout);
      const double passes = std::max(
          1.0, std::ceil(std::log(static_cast<double>(table_bytes) /
                                  static_cast<double>(budget)) /
                         std::log(fanout)));
      const double build_bytes =
          static_cast<double>(inner_pages) * page_size;
      const double probe_bytes =
          static_cast<double>(counts.probes) *
          static_cast<double>(bound.outer->schema.tuple_size() + 8);
      spill_s = spilled_fraction * (build_bytes + probe_bytes) * 2.0 *
                passes /
                static_cast<double>(
                    db_->EstimatedInternalReadBytesPerSecond());
    }
  }
  return std::max({io_s + spill_s, cpu_s, transfer_s});
}

std::optional<std::string> PushdownPlanner::DeviceConstraint(
    const exec::BoundQuery& bound) const {
  if (!db_->smart_capable()) {
    return "device has no Smart SSD runtime";
  }
  const BufferPool& pool = db_->buffer_pool();
  const storage::TableInfo& outer = *bound.outer;
  if (pool.HasDirtyInRange(outer.first_lpn, outer.page_count) ||
      (bound.inner != nullptr &&
       pool.HasDirtyInRange(bound.inner->first_lpn,
                            bound.inner->page_count))) {
    return "coherence: dirty pages of this table in the buffer pool";
  }
  if (bound.spec->join.has_value()) {
    const std::uint64_t table_bytes = exec::JoinHashTable::EstimateBytes(
        bound.inner->tuple_count, bound.payload_width);
    const std::uint64_t budget = ResolveJoinBudget(*db_, bound);
    const bool hybrid = budget > 0 && table_bytes > budget;
    if (hybrid && budget < kMinJoinBudgetBytes) {
      return "join budget below the hybrid spill floor";
    }
    const std::uint64_t resident =
        (hybrid ? budget : table_bytes) + 2ull * 1024 * 1024;
    if (resident > db_->ssd()->device_dram_free()) {
      return hybrid ? "join budget exceeds device DRAM"
                    : "join hash table exceeds device DRAM";
    }
  }
  return std::nullopt;
}

Result<PlanDecision> PushdownPlanner::Decide(const exec::BoundQuery& bound,
                                             const PlanHints& hints,
                                             SimTime now) const {
  PlanDecision decision;  // the host unless the last rule picks the device
  decision.est_host_seconds = EstimateHostSeconds(bound, hints);
  if (db_->smart_capable()) {
    decision.est_smart_seconds = EstimateSmartSeconds(bound, hints);
  }
  const storage::TableInfo& outer = *bound.outer;
  if (auto constraint = DeviceConstraint(bound)) {
    decision.reason = *constraint;
  } else if (outer.page_count > 0 &&
             2 * db_->buffer_pool().CachedInRange(outer.first_lpn,
                                                  outer.page_count) >=
                 outer.page_count) {
    decision.reason = "data mostly cached in the buffer pool";
  } else if (decision.est_smart_seconds >= decision.est_host_seconds) {
    decision.reason = "estimated cost favors host execution";
  } else if (db_->circuit_breaker().ShouldBypass(now)) {
    // Last, so the half-open probe it may admit is a device run.
    decision.reason = "circuit breaker open after repeated device failures";
  } else {
    decision.target = ExecutionTarget::kSmartSsd;
    decision.reason = "estimated cost favors in-SSD execution";
  }
  return decision;
}

}  // namespace smartssd::engine
