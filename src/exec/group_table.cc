#include "exec/group_table.h"

#include <algorithm>
#include <cstring>

namespace smartssd::exec {

namespace {

constexpr std::size_t kInitialSlots = 64;  // power of two

// Murmur3's 64-bit finalizer: every key bit reaches the low slot bits.
std::uint64_t MixWord(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

// FNV-1a with a Fibonacci finalizer, for keys longer than a word.
std::uint64_t HashBytes(const std::byte* key, std::uint32_t width) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint32_t i = 0; i < width; ++i) {
    h ^= static_cast<std::uint64_t>(key[i]);
    h *= 0x100000001B3ull;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

}  // namespace

void GroupTable::Init(std::uint32_t key_width, std::uint32_t num_states) {
  SMARTSSD_CHECK_GT(key_width, 0u);
  key_width_ = key_width;
  num_states_ = num_states;
  slots_.assign(kInitialSlots, 0);
}

std::uint32_t GroupTable::AddGroup(const std::byte* key,
                                   const std::int64_t* init_states) {
  const std::uint32_t group = count_++;
  keys_.insert(keys_.end(), key, key + key_width_);
  states_.insert(states_.end(), init_states, init_states + num_states_);
  return group;
}

std::uint64_t GroupTable::Hash(std::uint32_t group) const {
  return key_width_ <= 8 ? MixWord(key_words_[group])
                         : HashBytes(key(group), key_width_);
}

void GroupTable::Grow() {
  std::vector<std::uint32_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, 0);
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint32_t entry : old) {
    if (entry == 0) continue;
    std::size_t i = Hash(entry - 1) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = entry;
  }
}

std::uint32_t GroupTable::FindOrInsertWord(std::uint64_t word,
                                           const std::byte* key,
                                           const std::int64_t* init_states) {
  if ((count_ + 1) * 2 > slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = MixWord(word) & mask;
  while (slots_[i] != 0) {
    const std::uint32_t group = slots_[i] - 1;
    if (key_words_[group] == word) return group;
    i = (i + 1) & mask;
  }
  const std::uint32_t group = AddGroup(key, init_states);
  key_words_.push_back(word);
  slots_[i] = group + 1;
  return group;
}

std::uint32_t GroupTable::FindOrInsertBytes(const std::byte* key,
                                            const std::int64_t* init_states) {
  if ((count_ + 1) * 2 > slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = HashBytes(key, key_width_) & mask;
  while (slots_[i] != 0) {
    const std::uint32_t group = slots_[i] - 1;
    if (std::memcmp(this->key(group), key, key_width_) == 0) return group;
    i = (i + 1) & mask;
  }
  const std::uint32_t group = AddGroup(key, init_states);
  slots_[i] = group + 1;
  return group;
}

void GroupTable::FindOrInsertBatch(const std::byte* keys, std::size_t n,
                                   const std::int64_t* init_states,
                                   std::uint32_t* groups) {
  SMARTSSD_CHECK_GT(key_width_, 0u);  // Init() must have run
  const std::size_t stride = key_stride();
  if (key_width_ <= 8) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::byte* key = keys + i * stride;
      std::uint64_t word;
      std::memcpy(&word, key, sizeof(word));
      groups[i] = FindOrInsertWord(word, key, init_states);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    groups[i] = FindOrInsertBytes(keys + i * stride, init_states);
  }
}

std::uint32_t GroupTable::FindOrInsert(const std::byte* key,
                                       const std::int64_t* init_states) {
  std::uint32_t group;
  if (key_width_ <= 8) {
    std::byte lane[8] = {};
    std::memcpy(lane, key, key_width_);
    FindOrInsertBatch(lane, 1, init_states, &group);
  } else {
    FindOrInsertBatch(key, 1, init_states, &group);
  }
  return group;
}

void GroupTable::SortedGroups(std::vector<std::uint32_t>* out) const {
  out->resize(count_);
  for (std::uint32_t g = 0; g < count_; ++g) (*out)[g] = g;
  std::sort(out->begin(), out->end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return std::memcmp(key(a), key(b), key_width_) < 0;
            });
}

}  // namespace smartssd::exec
