#ifndef SMARTSSD_EXEC_HASH_TABLE_H_
#define SMARTSSD_EXEC_HASH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/result.h"

namespace smartssd::exec {

// Open-addressing hash table for the paper's "simple hash join": built
// once over the (small) inner table, probed per outer tuple. Keys are
// 64-bit integers (the joins are FK -> unique PK equi-joins); each entry
// carries a fixed-width payload of the inner columns the query needs.
//
// Build-then-probe contract: Probe() and ProbeBatch() return pointers
// into the payload pool, which an Insert() past the reserved capacity
// would reallocate and dangle. The first probe therefore seals the
// table; a later Insert is rejected with kFailedPrecondition instead of
// silently invalidating payloads the caller may still hold.
//
// Probe and ProbeBatch share one lookup routine, the open-addressing
// walk; the batch form runs it over a whole batch of keys per call.
//
// The footprint is what the pushdown planner checks against device DRAM:
// slot array + payload pool.
class JoinHashTable {
 public:
  // `payload_width` bytes per entry; `expected_entries` sizes the table
  // (it grows if exceeded, doubling).
  JoinHashTable(std::uint32_t payload_width,
                std::uint64_t expected_entries);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(JoinHashTable);
  // Moves transfer the payload pool wholesale, so pointers handed out by
  // Probe() before the move stay valid for the life of the destination;
  // the seal travels with them. The moved-from table is reset to a valid
  // empty, unsealed state (a defaulted move used to leave it with an
  // empty slot array, making a later SlotFor() mask with SIZE_MAX).
  // Move-assigning OVER a sealed table would free the payload pool its
  // probers still point into, so that is a checked programming error.
  JoinHashTable(JoinHashTable&& other) noexcept;
  JoinHashTable& operator=(JoinHashTable&& other) noexcept;

  // Inserts key -> payload. Duplicate keys are rejected (inner sides of
  // the paper's joins are primary keys), as is any insert after the
  // first Probe (the table is then sealed).
  Status Insert(std::int64_t key, std::span<const std::byte> payload);

  // Returns the payload for `key`, or nullptr if absent. The pointer
  // stays valid for the life of the table: probing seals it against
  // further inserts.
  const std::byte* Probe(std::int64_t key) const {
    const std::byte* hit;
    ProbeBatch(&key, 1, &hit);
    return hit;
  }

  // hits[i] = Probe(keys[i]) for i < n, in one call.
  void ProbeBatch(const std::int64_t* keys, std::size_t n,
                  const std::byte** hits) const;

  bool sealed() const { return sealed_; }

  std::uint64_t entries() const { return entries_; }
  std::uint32_t payload_width() const { return payload_width_; }
  std::uint64_t memory_bytes() const {
    return slots_.size() * sizeof(Slot) + payloads_.size();
  }

  // Conservative size estimate for `entries` rows, used by the planner
  // before the table exists.
  static std::uint64_t EstimateBytes(std::uint64_t entries,
                                     std::uint32_t payload_width);

  // The key mixer, exposed so the hybrid join can derive partition ids
  // from bits SlotFor() does not consume (SlotFor masks the low bits).
  static std::uint64_t HashKey(std::int64_t key);

 private:
  struct Slot {
    std::int64_t key = 0;
    std::uint64_t payload_offset_plus_one = 0;  // 0 = empty
  };

  void Grow();
  std::size_t SlotFor(std::int64_t key) const;

  std::uint32_t payload_width_;
  // Set by the (const) read path on first Probe; checked by Insert.
  mutable bool sealed_ = false;
  std::uint64_t entries_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::byte> payloads_;
};

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_HASH_TABLE_H_
