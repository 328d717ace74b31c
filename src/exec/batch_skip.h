#ifndef SMARTSSD_EXEC_BATCH_SKIP_H_
#define SMARTSSD_EXEC_BATCH_SKIP_H_

// Zone-map-aware page classification for the vectorized kernel.
//
// Task-level pruning (engine/query_task.cc, exec/pushdown_program.cc)
// skips pages whose per-column *merged* predicate interval cannot match
// — those pages are never read, and never charged. This analysis covers
// the complementary case inside the batch loop: a page that survived
// pruning (or was never pruned, e.g. when the caller has no zone map at
// the task layer) can still be decided wholesale from its [min, max]
// without touching a single row.
//
// The predicate is decomposed into its top-level AND conjuncts, in
// evaluation order. A conjunct is *conforming* when it is exactly
// "column OP int-literal" on a zone-map-tracked outer column; such a
// conjunct costs a fixed {1 column_read, 1 comparison} per row it is
// evaluated on, whether it passes or fails (CompareExpr evaluates both
// operands, then charges one comparison). Against one page's range a
// conforming conjunct is ALL-PASS, ALL-FAIL, or MIXED. Walking in
// order:
//  * every conjunct conforming and ALL-PASS  -> the page is all-pass:
//    predicate evaluation can be skipped with a dense selection vector,
//    charging every conjunct's cost for every row (the interpreter
//    evaluates the full chain on a passing row);
//  * a prefix of ALL-PASS conjuncts followed by an ALL-FAIL one -> the
//    page is all-fail: per-row work can be skipped entirely, charging
//    the prefix-plus-failing-conjunct cost for every row (the
//    interpreter short-circuits at the first false conjunct);
//  * anything else (MIXED, or a non-conforming conjunct reached before
//    a verdict) -> the page must be processed normally.
// This reasoning is what makes the fast paths charge *exactly* the
// interpreter's OpCounts for the rows they skip — the count-identity
// invariant every virtual-time number rests on.
//
// An empty query interval (e.g. "col > 5 AND col < 3") needs no special
// case: the second conjunct classifies ALL-FAIL against any non-empty
// page range, so such pages are skipped with the exact two-conjunct
// cost (the differential harness's PR-3 regression class).

#include <cstdint>
#include <optional>
#include <vector>

#include "expr/expression.h"
#include "storage/zone_map.h"

namespace smartssd::exec {

enum class PageClass {
  kMixed,    // no wholesale verdict: run the predicate normally
  kAllPass,  // every row passes: dense selection, skip evaluation
  kAllFail,  // every row fails: skip all per-row work
};

class BatchSkipAnalysis {
 public:
  BatchSkipAnalysis() = default;

  // `pred` and `map` must outlive the analysis. `num_outer_columns`
  // bounds the columns resolvable from the scanned page (join payload
  // columns are not known page-wide).
  BatchSkipAnalysis(const expr::Expression* pred,
                    const storage::ZoneMap* map, int num_outer_columns);

  // False when no page can ever classify (no zone map, no predicate, or
  // the first conjunct is non-conforming); callers then skip Classify.
  bool usable() const { return usable_; }

  // Classifies one page; requires usable(). A page past the map's last
  // tracked page is kMixed. On kAllPass, *per_row is the full conjunct
  // chain's per-row cost; on kAllFail, the evaluated-prefix cost
  // (including the failing conjunct). Untouched on kMixed.
  PageClass Classify(std::uint64_t page, expr::EvalStats* per_row) const;

 private:
  // A conforming conjunct and its column's zone-map slot, resolved once
  // so Classify reads ranges through a lookup that cannot fail.
  struct Conjunct {
    expr::ColumnCompare cc;
    int slot = -1;
  };
  // nullopt marks a non-conforming conjunct: classification cannot see
  // past it (it may pass or fail per row).
  std::vector<std::optional<Conjunct>> conjuncts_;
  const storage::ZoneMap* map_ = nullptr;
  bool usable_ = false;
};

// dst += per_row * rows, field by field. Used to charge skipped rows.
void AddScaledEvalStats(expr::EvalStats* dst, const expr::EvalStats& per_row,
                        std::uint64_t rows);

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_BATCH_SKIP_H_
