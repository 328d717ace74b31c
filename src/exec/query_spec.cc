#include "exec/query_spec.h"

#include <string>
#include <unordered_set>

namespace smartssd::exec {

namespace {

bool IsIntegerColumn(const storage::Column& column) {
  return column.type == storage::ColumnType::kInt32 ||
         column.type == storage::ColumnType::kInt64;
}

}  // namespace

Result<BoundQuery> Bind(const QuerySpec& spec,
                        const storage::Catalog& catalog) {
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* outer,
                            catalog.GetTable(spec.table));
  const storage::TableInfo* inner = nullptr;
  std::vector<storage::Column> combined_columns =
      outer->schema.columns();
  std::uint32_t payload_width = 0;

  if (spec.join.has_value()) {
    const JoinSpec& join = *spec.join;
    SMARTSSD_ASSIGN_OR_RETURN(inner, catalog.GetTable(join.inner_table));
    if (join.outer_key_col < 0 ||
        join.outer_key_col >= outer->schema.num_columns()) {
      return InvalidArgumentError("join: outer key column out of range");
    }
    if (join.inner_key_col < 0 ||
        join.inner_key_col >= inner->schema.num_columns()) {
      return InvalidArgumentError("join: inner key column out of range");
    }
    if (!IsIntegerColumn(outer->schema.column(join.outer_key_col)) ||
        !IsIntegerColumn(inner->schema.column(join.inner_key_col))) {
      return InvalidArgumentError("join keys must be integer columns");
    }
    for (const int col : join.inner_payload_cols) {
      if (col < 0 || col >= inner->schema.num_columns()) {
        return InvalidArgumentError("join: payload column out of range");
      }
      storage::Column payload_column = inner->schema.column(col);
      payload_column.name = join.inner_table + "." + payload_column.name;
      payload_width += payload_column.width;
      combined_columns.push_back(std::move(payload_column));
    }
  } else {
    if (spec.order == PipelineOrder::kProbeFirst) {
      return InvalidArgumentError("probe-first order requires a join");
    }
  }

  SMARTSSD_ASSIGN_OR_RETURN(
      storage::Schema combined_schema,
      storage::Schema::Create(std::move(combined_columns)));

  // Type-check every expression.
  if (spec.predicate != nullptr) {
    // In filter-first order the predicate runs before the probe, so it
    // may only reference outer columns.
    if (spec.order == PipelineOrder::kFilterFirst) {
      SMARTSSD_RETURN_IF_ERROR(spec.predicate->Validate(outer->schema));
    } else {
      SMARTSSD_RETURN_IF_ERROR(spec.predicate->Validate(combined_schema));
    }
  }
  if (!spec.aggregates.empty() && !spec.projection.empty()) {
    return InvalidArgumentError(
        "query cannot both aggregate and project rows");
  }
  for (const AggSpec& agg : spec.aggregates) {
    if (agg.input == nullptr && agg.fn != AggSpec::Fn::kCount) {
      return InvalidArgumentError("aggregate needs an input expression");
    }
    if (agg.input != nullptr) {
      SMARTSSD_RETURN_IF_ERROR(agg.input->Validate(combined_schema));
    }
  }
  for (const int col : spec.projection) {
    if (col < 0 || col >= combined_schema.num_columns()) {
      return InvalidArgumentError("projection column out of range");
    }
  }
  if (spec.aggregates.empty() && spec.projection.empty()) {
    return InvalidArgumentError("query must aggregate or project");
  }
  for (const int col : spec.group_by) {
    if (col < 0 || col >= combined_schema.num_columns()) {
      return InvalidArgumentError("GROUP BY column out of range");
    }
  }
  if (!spec.group_by.empty() && spec.aggregates.empty()) {
    return InvalidArgumentError("GROUP BY requires aggregates");
  }
  if (spec.top_n.has_value()) {
    if (spec.projection.empty()) {
      return InvalidArgumentError("ORDER BY/LIMIT requires a projection");
    }
    const TopNSpec& top_n = *spec.top_n;
    if (top_n.order_col < 0 ||
        top_n.order_col >= combined_schema.num_columns()) {
      return InvalidArgumentError("ORDER BY column out of range");
    }
    if (!IsIntegerColumn(combined_schema.column(top_n.order_col))) {
      return InvalidArgumentError("ORDER BY column must be an integer");
    }
    if (top_n.limit == 0) {
      return InvalidArgumentError("LIMIT must be positive");
    }
  }

  return BoundQuery{.spec = &spec,
                    .outer = outer,
                    .inner = inner,
                    .combined_schema = std::move(combined_schema),
                    .payload_width = payload_width};
}

Result<storage::Schema> OutputSchema(const BoundQuery& bound) {
  std::vector<storage::Column> columns;
  if (!bound.spec->aggregates.empty()) {
    for (const int col : bound.spec->group_by) {
      storage::Column group_column = bound.combined_schema.column(col);
      // Disambiguate if the same column appears twice in the output.
      group_column.name = "key_" + group_column.name;
      columns.push_back(std::move(group_column));
    }
    for (const AggSpec& agg : bound.spec->aggregates) {
      columns.push_back(storage::Column::Int64(
          agg.name.empty() ? "agg" + std::to_string(columns.size())
                           : agg.name));
    }
  } else {
    // A column may legally be projected more than once; suffix repeats
    // with their position so output column names stay unique.
    std::unordered_set<std::string> used;
    for (std::size_t i = 0; i < bound.spec->projection.size(); ++i) {
      storage::Column column =
          bound.combined_schema.column(bound.spec->projection[i]);
      std::string name = column.name;
      while (!used.insert(name).second) {
        name = column.name + "_" + std::to_string(i);
        column.name = name;
      }
      column.name = name;
      columns.push_back(std::move(column));
    }
  }
  return storage::Schema::Create(std::move(columns));
}

std::string PlanToString(const BoundQuery& bound) {
  const QuerySpec& spec = *bound.spec;
  std::string out;
  if (!spec.aggregates.empty()) {
    out += "Aggregate[";
    for (std::size_t i = 0; i < spec.aggregates.size(); ++i) {
      if (i > 0) out += ", ";
      const AggSpec& agg = spec.aggregates[i];
      switch (agg.fn) {
        case AggSpec::Fn::kSum:
          out += "SUM";
          break;
        case AggSpec::Fn::kCount:
          out += "COUNT";
          break;
        case AggSpec::Fn::kMin:
          out += "MIN";
          break;
        case AggSpec::Fn::kMax:
          out += "MAX";
          break;
      }
      out += "(";
      out += agg.input == nullptr ? "*" : agg.input->ToString();
      out += ")";
    }
    if (!spec.group_by.empty()) {
      out += " GROUP BY ";
      for (std::size_t i = 0; i < spec.group_by.size(); ++i) {
        if (i > 0) out += ", ";
        out += bound.combined_schema.column(spec.group_by[i]).name;
      }
    }
    out += "] <- ";
  } else {
    if (spec.top_n.has_value()) {
      out += "TopN[";
      out += bound.combined_schema.column(spec.top_n->order_col).name;
      out += spec.top_n->descending ? " DESC" : " ASC";
      out += " LIMIT " + std::to_string(spec.top_n->limit) + "] <- ";
    }
    out += "Project[";
    for (std::size_t i = 0; i < spec.projection.size(); ++i) {
      if (i > 0) out += ", ";
      out += bound.combined_schema.column(spec.projection[i]).name;
    }
    out += "] <- ";
  }
  const std::string filter =
      spec.predicate == nullptr
          ? ""
          : "Filter[" + spec.predicate->ToString() + "] <- ";
  const std::string probe =
      spec.join.has_value()
          ? "HashJoin[probe " + spec.table + "." +
                bound.outer->schema.column(spec.join->outer_key_col).name +
                " = build " + spec.join->inner_table + "." +
                bound.inner->schema.column(spec.join->inner_key_col).name +
                "] <- "
          : "";
  // Top-down plan order: filter-first puts the filter next to the scan
  // (Figure 4); probe-first puts the join there (Figure 6).
  if (spec.order == PipelineOrder::kFilterFirst) {
    out += probe + filter;
  } else {
    out += filter + probe;
  }
  out += "Scan[" + spec.table + ", " +
         storage::PageLayoutName(bound.outer->layout) + "]";
  return out;
}

}  // namespace smartssd::exec
