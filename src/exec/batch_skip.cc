#include "exec/batch_skip.h"

namespace smartssd::exec {

namespace {

enum class ConjunctVerdict { kAllPass, kAllFail, kMixed };

// Classifies "col OP literal" against the page's [mn, mx]. The empty-
// page sentinel (mn > mx) can classify either way; with zero rows on
// the page every per-row charge multiplies to nothing, so any verdict
// is exact there.
ConjunctVerdict ClassifyConjunct(const expr::ColumnCompare& cc,
                                 std::int64_t mn, std::int64_t mx) {
  const std::int64_t lit = cc.literal;
  switch (cc.op) {
    case expr::CompareOp::kLt:
      if (mx < lit) return ConjunctVerdict::kAllPass;
      if (mn >= lit) return ConjunctVerdict::kAllFail;
      break;
    case expr::CompareOp::kLe:
      if (mx <= lit) return ConjunctVerdict::kAllPass;
      if (mn > lit) return ConjunctVerdict::kAllFail;
      break;
    case expr::CompareOp::kGt:
      if (mn > lit) return ConjunctVerdict::kAllPass;
      if (mx <= lit) return ConjunctVerdict::kAllFail;
      break;
    case expr::CompareOp::kGe:
      if (mn >= lit) return ConjunctVerdict::kAllPass;
      if (mx < lit) return ConjunctVerdict::kAllFail;
      break;
    case expr::CompareOp::kEq:
      if (mn == lit && mx == lit) return ConjunctVerdict::kAllPass;
      if (lit < mn || lit > mx) return ConjunctVerdict::kAllFail;
      break;
    case expr::CompareOp::kNe:
      if (lit < mn || lit > mx) return ConjunctVerdict::kAllPass;
      if (mn == lit && mx == lit) return ConjunctVerdict::kAllFail;
      break;
  }
  return ConjunctVerdict::kMixed;
}

}  // namespace

BatchSkipAnalysis::BatchSkipAnalysis(const expr::Expression* pred,
                                     const storage::ZoneMap* map,
                                     int num_outer_columns)
    : map_(map) {
  if (pred == nullptr || map == nullptr) return;
  auto add = [&](const expr::Expression& e) {
    const std::optional<expr::ColumnCompare> cc = e.AsColumnCompare();
    if (cc.has_value() && cc->column < num_outer_columns &&
        map->TracksColumn(cc->column)) {
      conjuncts_.emplace_back(
          Conjunct{.cc = *cc, .slot = map->TrackedSlot(cc->column)});
    } else {
      conjuncts_.emplace_back(std::nullopt);
    }
  };
  if (const auto* children = pred->AsConjunction()) {
    for (const auto& child : *children) add(*child);
  } else {
    add(*pred);
  }
  // A leading non-conforming conjunct blocks every verdict.
  usable_ = !conjuncts_.empty() && conjuncts_.front().has_value();
}

PageClass BatchSkipAnalysis::Classify(std::uint64_t page,
                                      expr::EvalStats* per_row) const {
  // Pages past the map (appended after the last widen) have no range.
  if (page >= map_->pages()) return PageClass::kMixed;
  expr::EvalStats cost;
  for (const auto& conjunct : conjuncts_) {
    if (!conjunct.has_value()) return PageClass::kMixed;
    const storage::ZoneMap::Range& range =
        map_->SlotRange(page, conjunct->slot);
    // One column read + one comparison per row this conjunct runs on.
    ++cost.column_reads;
    ++cost.comparisons;
    switch (ClassifyConjunct(conjunct->cc, range.min, range.max)) {
      case ConjunctVerdict::kAllPass:
        break;  // every row reaches the next conjunct
      case ConjunctVerdict::kAllFail:
        // Every row short-circuits here: prefix + this conjunct.
        *per_row = cost;
        return PageClass::kAllFail;
      case ConjunctVerdict::kMixed:
        return PageClass::kMixed;
    }
  }
  *per_row = cost;
  return PageClass::kAllPass;
}

void AddScaledEvalStats(expr::EvalStats* dst, const expr::EvalStats& per_row,
                        std::uint64_t rows) {
  dst->comparisons += per_row.comparisons * rows;
  dst->arithmetic += per_row.arithmetic * rows;
  dst->column_reads += per_row.column_reads * rows;
  dst->like_evals += per_row.like_evals * rows;
  dst->case_evals += per_row.case_evals * rows;
}

}  // namespace smartssd::exec
