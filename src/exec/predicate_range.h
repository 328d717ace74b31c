#ifndef SMARTSSD_EXEC_PREDICATE_RANGE_H_
#define SMARTSSD_EXEC_PREDICATE_RANGE_H_

#include <cstdint>
#include <limits>
#include <map>

#include "expr/expression.h"
#include "storage/zone_map.h"

namespace smartssd::exec {

// The value interval a predicate allows for one column.
struct ColumnRange {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();

  bool impossible() const { return lo > hi; }
};

// Derives per-column ranges from a predicate's top-level conjunction:
// every conjunct of the form "column <op> int-literal" narrows that
// column's interval; anything else (ORs, arithmetic, string matches) is
// conservatively ignored. The result is sound for pruning: a row
// violating any returned range cannot satisfy the predicate.
std::map<int, ColumnRange> ExtractColumnRanges(
    const expr::Expression* predicate);

// Zone-map page pruning, the one rule the host scan and the pushdown
// program share. PruneRanges keeps the ExtractColumnRanges intervals of
// the outer table's columns (those below `outer_columns`) that
// `zone_map` tracks; it is empty when `zone_map` is null or no range is
// usable, and then no page can be pruned.
std::map<int, ColumnRange> PruneRanges(const expr::Expression* predicate,
                                       int outer_columns,
                                       const storage::ZoneMap* zone_map);

// False when page `page`'s statistics rule out one of `ranges`: no row
// on it can satisfy the predicate.
bool PageMayMatch(const storage::ZoneMap& zone_map, std::uint64_t page,
                  const std::map<int, ColumnRange>& ranges);

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_PREDICATE_RANGE_H_
