#ifndef SMARTSSD_EXEC_QUERY_SPEC_H_
#define SMARTSSD_EXEC_QUERY_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "storage/catalog.h"

namespace smartssd::exec {

// Join description: build a hash table on the (small) inner table, probe
// it with the outer table's foreign key — the paper's "simple hash join"
// (Figures 4 and 6).
struct JoinSpec {
  std::string inner_table;
  int outer_key_col = -1;  // FK column in the outer schema
  int inner_key_col = -1;  // unique key column in the inner schema
  // Inner columns appended to the combined row (after the outer columns),
  // available to predicates, aggregates, and projections.
  std::vector<int> inner_payload_cols;
};

// Where the selection sits relative to the probe. The synthetic join
// query (Figure 4) filters S before probing; the paper's Q14 plan
// (Figure 6) replaces the selection with aggregation after the join, so
// the probe happens for every outer tuple — which is exactly why Q14 is
// the most CPU-hungry query in the evaluation.
enum class PipelineOrder { kFilterFirst, kProbeFirst };

struct AggSpec {
  enum class Fn { kSum, kCount, kMin, kMax };
  Fn fn = Fn::kSum;
  expr::ExprPtr input;  // over the combined row; null only for COUNT
  std::string name;
};

// ORDER BY <column> [DESC] LIMIT <limit> on a projection query. A
// natural extension beyond the paper's evaluated operators ("designing
// algorithms for various operators that work inside the Smart SSD",
// Section 5): top-N collapses the result to k rows, so pushing it down
// keeps the in-SSD advantage even for otherwise row-returning scans.
struct TopNSpec {
  int order_col = -1;  // combined-row column, must be an integer column
  bool descending = false;
  std::uint32_t limit = 0;
};

// A declarative single-pipeline query: scan [+ filter] [+ hash-probe
// join] and one of
//   * scalar aggregation (one output row),
//   * grouped aggregation (GROUP BY a few low-cardinality columns — the
//     TPC-H Q1 shape; an extension beyond the paper's evaluated class),
//   * projection of qualifying rows, optionally with ORDER BY/LIMIT.
// The engine can run any QuerySpec on the host or push it into the
// Smart SSD.
struct QuerySpec {
  std::string name;   // for plan printing
  std::string table;  // outer (scanned/probed) table
  expr::ExprPtr predicate;
  std::optional<JoinSpec> join;
  PipelineOrder order = PipelineOrder::kFilterFirst;
  std::vector<AggSpec> aggregates;  // non-empty => aggregate query
  std::vector<int> group_by;        // with aggregates: GROUP BY columns
  std::vector<int> projection;      // combined-row columns, else
  std::optional<TopNSpec> top_n;    // with projection only
};

// A spec resolved against a catalog: table metadata, the combined-row
// schema (outer columns followed by inner payload columns), and the
// width of the payload blob carried from probe hits. The blob packs the
// payload columns in order, so each sits at its combined offset less
// the outer record's size.
struct BoundQuery {
  const QuerySpec* spec = nullptr;
  const storage::TableInfo* outer = nullptr;
  const storage::TableInfo* inner = nullptr;  // null without a join
  storage::Schema combined_schema;
  std::uint32_t payload_width = 0;

  int outer_columns() const { return outer->schema.num_columns(); }
};

// Resolves and type-checks a spec. Fails if tables/columns are missing,
// expressions do not validate, or the join keys are not integer columns.
// The BoundQuery keeps a pointer to `spec`, which must therefore outlive
// it — binding a temporary is a compile error.
Result<BoundQuery> Bind(const QuerySpec& spec,
                        const storage::Catalog& catalog);
Result<BoundQuery> Bind(QuerySpec&& spec,
                        const storage::Catalog& catalog) = delete;

// Schema of the query's output rows: the projected columns for a
// projection query, or (GROUP BY columns followed by) one INT64 column
// per aggregate.
Result<storage::Schema> OutputSchema(const BoundQuery& bound);

// One-line plan rendering (the textual equivalent of Figures 4 and 6).
std::string PlanToString(const BoundQuery& bound);

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_QUERY_SPEC_H_
