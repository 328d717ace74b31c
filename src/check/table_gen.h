#ifndef SMARTSSD_CHECK_TABLE_GEN_H_
#define SMARTSSD_CHECK_TABLE_GEN_H_

// Deterministic workload tables for the differential harness. Every
// cell value is a pure function of (seed, row, column), so a table
// loaded into one database, another layout, or partitioned across a
// fleet's devices is byte-for-byte the same relation — the property
// the cross-path comparisons rest on.
//
// Outer fact table "F" (the scanned/probed side):
//   col 0  rid   INT32  row id, unique, equals the global row index
//   col 1  fk    INT32  FK into "D" in [1, fk_domain]; some values miss
//   col 2  cat   INT32  low cardinality, [0, 8)
//   col 3  sel   INT32  uniform in [0, 2^30)
//   col 4  v64   INT64  uniform in [0, 2^30)
//   col 5  w64   INT64  uniform in [0, 2^30)
//   col 6  v32   INT32  uniform in [0, 2^30)
//   col 7  cat2  INT32  low cardinality, [0, 5)
//
// Inner dimension table "D" (the hash-join build side):
//   col 0  dk    INT32  unique key, equals row + 1
//   col 1  dpay  INT32  uniform in [0, 2^30)
//   col 2  dval  INT64  uniform in [0, 2^30)
//
// Values stay in [0, 2^30) so INT64 SUM/arithmetic over a few thousand
// rows cannot overflow even with small literal multipliers.

#include <cstdint>

#include "common/result.h"
#include "engine/database.h"
#include "engine/fleet.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace smartssd::check {

inline constexpr char kOuterTable[] = "F";
inline constexpr char kInnerTable[] = "D";
inline constexpr int kOuterColumns = 8;
inline constexpr int kInnerColumns = 3;
inline constexpr std::int64_t kValueDomain = std::int64_t{1} << 30;
inline constexpr std::int64_t kCatCardinality = 8;
inline constexpr std::int64_t kCat2Cardinality = 5;

struct TableGenConfig {
  std::uint64_t seed = 1;
  std::uint64_t outer_rows = 1'500;
  // Large enough that the differential spill configurations' join
  // budgets force multi-pass hybrid joins (the estimated hash table is
  // ~22 KiB against 12 KiB / 4 KiB budgets) while unconstrained
  // configurations still build it whole.
  std::uint64_t inner_rows = 512;

  // FK domain [1, fk_domain]; the quarter above inner_rows are probe
  // misses, so inner joins drop rows on every path.
  std::uint64_t fk_domain() const { return inner_rows + inner_rows / 4; }
};

storage::Schema OuterSchema();
storage::Schema InnerSchema();

// The cell value at (row, col); pure in (config.seed, row, col).
std::int64_t OuterValue(const TableGenConfig& config, std::uint64_t row,
                        int col);
std::int64_t InnerValue(const TableGenConfig& config, std::uint64_t row,
                        int col);

// Loads F and D into a single database in the given layout.
Status LoadTables(engine::Database& db, const TableGenConfig& config,
                  storage::PageLayout layout);

// Loads F partitioned and D replicated across a fleet's devices. The
// generator's purity makes every fleet shape cell-identical to the
// single-device load, so fleet results can be compared byte-for-byte
// against single-device ground truth.
Status LoadTablesFleet(engine::Fleet& fleet, const TableGenConfig& config,
                       storage::PageLayout layout);

}  // namespace smartssd::check

#endif  // SMARTSSD_CHECK_TABLE_GEN_H_
