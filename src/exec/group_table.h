#ifndef SMARTSSD_EXEC_GROUP_TABLE_H_
#define SMARTSSD_EXEC_GROUP_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace smartssd::exec {

// Flat hash table for GROUP BY state. Keys are the raw serialized
// group-column bytes (fixed width per query), so a lookup allocates
// nothing — replacing the former std::map<std::string, ...> whose every
// probe materialized a std::string key and chased tree nodes.
//
// The lookup is chosen once, by key width:
//  * up to 8 bytes: open addressing over the key read as one
//    zero-padded 64-bit word, which is hashed and compared as a single
//    value. TPC-H Q1's (l_returnflag, l_linestatus) is a 2-byte key.
//  * longer: open addressing with a byte hash and memcmp.
//
// Groups are kept in insertion order in two flat pools (keys_, states_)
// and only sorted at Finish time. Equal-width keys sort by memcmp
// exactly as std::string keys sorted in the map, so output order is
// unchanged.
class GroupTable {
 public:
  GroupTable() = default;
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(GroupTable);

  // Must be called once before use. `key_width` > 0.
  void Init(std::uint32_t key_width, std::uint32_t num_states);

  // Bytes between consecutive keys in a FindOrInsertBatch buffer. Keys
  // of up to 8 bytes sit in one 8-byte lane each, whose bytes past the
  // key must be zero.
  std::uint32_t key_stride() const { return key_width_ <= 8 ? 8 : key_width_; }

  // groups[i] = index of the group whose key is the key_width bytes at
  // keys + i * key_stride(), creating each missing group with a copy of
  // `init_states` (num_states values).
  void FindOrInsertBatch(const std::byte* keys, std::size_t n,
                         const std::int64_t* init_states,
                         std::uint32_t* groups);

  // The same lookup for one key of key_width bytes (no padding needed).
  std::uint32_t FindOrInsert(const std::byte* key,
                             const std::int64_t* init_states);

  std::int64_t* states(std::uint32_t group) {
    return states_.data() +
           static_cast<std::size_t>(group) * num_states_;
  }
  const std::int64_t* states(std::uint32_t group) const {
    return states_.data() +
           static_cast<std::size_t>(group) * num_states_;
  }
  const std::byte* key(std::uint32_t group) const {
    return keys_.data() + static_cast<std::size_t>(group) * key_width_;
  }

  std::uint32_t size() const { return count_; }
  std::uint32_t key_width() const { return key_width_; }

  // Fills `out` with all group indices in ascending key-byte order.
  void SortedGroups(std::vector<std::uint32_t>* out) const;

 private:
  // Appends a new group for `key` (key_width bytes); returns its index.
  std::uint32_t AddGroup(const std::byte* key,
                         const std::int64_t* init_states);
  // Open-addressing lookups; `word` is the key's zero-padded word.
  std::uint32_t FindOrInsertWord(std::uint64_t word, const std::byte* key,
                                 const std::int64_t* init_states);
  std::uint32_t FindOrInsertBytes(const std::byte* key,
                                  const std::int64_t* init_states);
  std::uint64_t Hash(std::uint32_t group) const;
  void Grow();

  std::uint32_t key_width_ = 0;
  std::uint32_t num_states_ = 0;
  std::uint32_t count_ = 0;
  std::vector<std::byte> keys_;
  std::vector<std::int64_t> states_;
  // Keys of up to 8 bytes: each group's key as a zero-padded word.
  std::vector<std::uint64_t> key_words_;
  std::vector<std::uint32_t> slots_;  // group index + 1; 0 = empty
};

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_GROUP_TABLE_H_
