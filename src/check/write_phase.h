#ifndef SMARTSSD_CHECK_WRITE_PHASE_H_
#define SMARTSSD_CHECK_WRITE_PHASE_H_

// Write phases for the differential harness: between query specs, the
// write-path databases absorb a deterministic ingest/update batch (an
// in-place update over a rid range and/or an append run), flush, and
// rebuild their statistics. Everything is a pure function of
// (seed, index), so replaying spec `index` regenerates phases 0..index
// and lands on the identical stored relation the failing sweep saw.
//
// The TableOracle mirrors the outer table's cells in memory across
// applied phases; Verify() re-reads the table from a database's device
// and compares cell-exact — the "no silent corruption" check that the
// FTL's out-of-place writes and garbage collection relocated every page
// faithfully.

#include <array>
#include <cstdint>
#include <vector>

#include "check/table_gen.h"
#include "common/result.h"
#include "engine/database.h"

namespace smartssd::check {

// Hard cap on rows a single phase appends (sizing extent reservations).
inline constexpr std::uint64_t kMaxWritePhaseAppendRows = 48;

struct WritePhaseSpec {
  bool enabled = false;  // disabled phases are exact no-ops

  // Update: rows with rid in [update_lo, update_hi] get `update_col`
  // rewritten to MutatedValue(salt, rid, update_col). rid (col 0) is
  // never mutated, so the same range selects the same rows on every
  // configuration.
  bool with_update = false;
  std::int64_t update_lo = 0;
  std::int64_t update_hi = -1;
  int update_col = 4;
  std::uint64_t salt = 0;

  // Append: rows with global indexes [tuple_count, +append_rows), cell
  // values from OuterValue — appended rows are indistinguishable from
  // bulk-loaded ones.
  std::uint64_t append_rows = 0;
};

// Pure in (seed, index): even indexes are disabled, odd indexes carry
// an update and/or an append.
WritePhaseSpec GenerateWritePhase(std::uint64_t seed, int index,
                                  const TableGenConfig& tables);

// The value an update phase writes into (rid, col); pure.
std::int64_t MutatedValue(std::uint64_t salt, std::int64_t rid, int col);

// In-memory mirror of the outer table "F" under applied write phases.
class TableOracle {
 public:
  explicit TableOracle(const TableGenConfig& config);

  void Apply(const WritePhaseSpec& phase);

  // Reads F back from the database's device (flushed state) and
  // compares every cell against the mirror.
  Status Verify(engine::Database& db) const;

  std::uint64_t rows() const { return rows_.size(); }

 private:
  TableGenConfig config_;
  std::vector<std::array<std::int64_t, kOuterColumns>> rows_;
};

// Applies one phase to a live database through the engine write path
// (TableUpdater + TableAppender), then flushes the buffer pool so the
// device is the source of truth again. The writers keep the zone map
// exact page by page (see check::CheckZoneMapsMatchStorage).
Status ApplyWritePhase(engine::Database& db, const TableGenConfig& config,
                       const WritePhaseSpec& phase);

}  // namespace smartssd::check

#endif  // SMARTSSD_CHECK_WRITE_PHASE_H_
