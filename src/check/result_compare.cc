#include "check/result_compare.h"

#include <cstring>

#include "storage/tuple.h"

namespace smartssd::check {

ExecutionOutput FromQuery(std::string config,
                          const engine::QueryResult& result) {
  return ExecutionOutput{.config = std::move(config),
                         .schema = result.output_schema,
                         .rows = result.rows,
                         .aggs = result.agg_values,
                         .counts = result.stats.counts};
}

ExecutionOutput FromFleet(std::string config,
                          const engine::FleetQueryResult& result) {
  return ExecutionOutput{.config = std::move(config),
                         .schema = result.output_schema,
                         .rows = result.rows,
                         .aggs = result.agg_values,
                         .counts = {}};
}

std::string RenderRow(const storage::Schema& schema, const std::byte* row) {
  storage::TupleReader reader(&schema, row);
  std::string out = "(";
  for (int col = 0; col < schema.num_columns(); ++col) {
    if (col > 0) out += ", ";
    switch (schema.column(col).type) {
      case storage::ColumnType::kInt32:
        out += std::to_string(reader.GetInt32(col));
        break;
      case storage::ColumnType::kInt64:
        out += std::to_string(reader.GetInt64(col));
        break;
      case storage::ColumnType::kFixedChar:
        out += "'" + std::string(reader.GetChar(col)) + "'";
        break;
    }
  }
  out += ")";
  return out;
}

Status CompareOutputs(const ExecutionOutput& expected,
                      const ExecutionOutput& actual) {
  const std::string who =
      "[" + expected.config + " vs " + actual.config + "] ";
  if (expected.schema.tuple_size() != actual.schema.tuple_size()) {
    return InternalError(who + "output schemas differ: " +
                         std::to_string(expected.schema.tuple_size()) +
                         " vs " + std::to_string(actual.schema.tuple_size()) +
                         " bytes per row");
  }
  if (expected.aggs != actual.aggs) {
    for (std::size_t i = 0;
         i < std::max(expected.aggs.size(), actual.aggs.size()); ++i) {
      const bool both = i < expected.aggs.size() && i < actual.aggs.size();
      if (!both || expected.aggs[i] != actual.aggs[i]) {
        return InternalError(
            who + "aggregate " + std::to_string(i) + " differs: " +
            (i < expected.aggs.size() ? std::to_string(expected.aggs[i])
                                      : "<missing>") +
            " vs " +
            (i < actual.aggs.size() ? std::to_string(actual.aggs[i])
                                    : "<missing>"));
      }
    }
  }
  if (expected.row_count() != actual.row_count()) {
    return InternalError(who + "row counts differ: " +
                         std::to_string(expected.row_count()) + " vs " +
                         std::to_string(actual.row_count()));
  }
  if (expected.rows != actual.rows) {
    const std::uint32_t width = expected.schema.tuple_size();
    for (std::uint64_t r = 0; width != 0 && r < expected.row_count(); ++r) {
      const std::byte* a = expected.rows.data() + r * width;
      const std::byte* b = actual.rows.data() + r * width;
      if (std::memcmp(a, b, width) != 0) {
        return InternalError(who + "row " + std::to_string(r) +
                             " differs: " + RenderRow(expected.schema, a) +
                             " vs " + RenderRow(actual.schema, b));
      }
    }
    return InternalError(who + "row bytes differ");
  }
  return Status::OK();
}

Status CompareCounts(const ExecutionOutput& expected,
                     const ExecutionOutput& actual) {
  if (expected.counts == actual.counts) return Status::OK();
  const std::string who =
      "[" + expected.config + " vs " + actual.config + "] ";
  const auto field = [&](const char* name, std::uint64_t a,
                         std::uint64_t b) -> std::string {
    if (a == b) return "";
    return who + "op count '" + name + "' differs: " + std::to_string(a) +
           " vs " + std::to_string(b);
  };
  const exec::OpCounts& e = expected.counts;
  const exec::OpCounts& o = actual.counts;
  for (const std::string& msg : {
           field("pages", e.pages, o.pages),
           field("tuples", e.tuples, o.tuples),
           field("probes", e.probes, o.probes),
           field("hash_inserts", e.hash_inserts, o.hash_inserts),
           field("output_tuples", e.output_tuples, o.output_tuples),
           field("output_bytes", e.output_bytes, o.output_bytes),
           field("agg_updates", e.agg_updates, o.agg_updates),
           field("group_updates", e.group_updates, o.group_updates),
           field("topn_updates", e.topn_updates, o.topn_updates),
           field("comparisons", e.eval.comparisons, o.eval.comparisons),
           field("arithmetic", e.eval.arithmetic, o.eval.arithmetic),
           field("column_reads", e.eval.column_reads, o.eval.column_reads),
           field("like_evals", e.eval.like_evals, o.eval.like_evals),
           field("case_evals", e.eval.case_evals, o.eval.case_evals),
       }) {
    if (!msg.empty()) return InternalError(msg);
  }
  return InternalError(who + "op counts differ");
}

}  // namespace smartssd::check
