#include "exec/predicate_range.h"

#include <algorithm>

namespace smartssd::exec {

namespace {

void ApplyCompare(const expr::ColumnCompare& compare,
                  std::map<int, ColumnRange>* ranges) {
  ColumnRange& range = (*ranges)[compare.column];
  switch (compare.op) {
    case expr::CompareOp::kEq:
      range.lo = std::max(range.lo, compare.literal);
      range.hi = std::min(range.hi, compare.literal);
      break;
    case expr::CompareOp::kLt:
      if (compare.literal == std::numeric_limits<std::int64_t>::min()) {
        range.hi = std::numeric_limits<std::int64_t>::min();
        range.lo = range.hi + 1;  // impossible
      } else {
        range.hi = std::min(range.hi, compare.literal - 1);
      }
      break;
    case expr::CompareOp::kLe:
      range.hi = std::min(range.hi, compare.literal);
      break;
    case expr::CompareOp::kGt:
      if (compare.literal == std::numeric_limits<std::int64_t>::max()) {
        range.lo = std::numeric_limits<std::int64_t>::max();
        range.hi = range.lo - 1;  // impossible
      } else {
        range.lo = std::max(range.lo, compare.literal + 1);
      }
      break;
    case expr::CompareOp::kGe:
      range.lo = std::max(range.lo, compare.literal);
      break;
    case expr::CompareOp::kNe:
      // An exclusion doesn't narrow an interval; ignore.
      break;
  }
}

}  // namespace

std::map<int, ColumnRange> ExtractColumnRanges(
    const expr::Expression* predicate) {
  std::map<int, ColumnRange> ranges;
  if (predicate == nullptr) return ranges;
  if (const auto* conjuncts = predicate->AsConjunction()) {
    for (const expr::ExprPtr& conjunct : *conjuncts) {
      if (const auto compare = conjunct->AsColumnCompare()) {
        ApplyCompare(*compare, &ranges);
      }
    }
    return ranges;
  }
  if (const auto compare = predicate->AsColumnCompare()) {
    ApplyCompare(*compare, &ranges);
  }
  return ranges;
}

std::map<int, ColumnRange> PruneRanges(const expr::Expression* predicate,
                                       int outer_columns,
                                       const storage::ZoneMap* zone_map) {
  std::map<int, ColumnRange> ranges;
  if (zone_map == nullptr) return ranges;
  for (const auto& [col, range] : ExtractColumnRanges(predicate)) {
    if (col < outer_columns && zone_map->TracksColumn(col)) {
      ranges.emplace(col, range);
    }
  }
  return ranges;
}

bool PageMayMatch(const storage::ZoneMap& zone_map, std::uint64_t page,
                  const std::map<int, ColumnRange>& ranges) {
  for (const auto& [col, range] : ranges) {
    if (!zone_map.PageMayMatch(page, col, range.lo, range.hi)) return false;
  }
  return true;
}

}  // namespace smartssd::exec
