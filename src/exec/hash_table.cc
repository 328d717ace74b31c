#include "exec/hash_table.h"

#include <bit>

namespace smartssd::exec {

namespace {

std::uint64_t NextPow2(std::uint64_t n) {
  return n <= 1 ? 1 : std::bit_ceil(n);
}

}  // namespace

std::uint64_t JoinHashTable::HashKey(std::int64_t key) {
  // Fibonacci-style mix; adequate for integer keys.
  std::uint64_t x = static_cast<std::uint64_t>(key);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

JoinHashTable::JoinHashTable(std::uint32_t payload_width,
                             std::uint64_t expected_entries)
    : payload_width_(payload_width) {
  // Target load factor ~0.7.
  const std::uint64_t slots =
      NextPow2(expected_entries + expected_entries / 2 + 8);
  slots_.resize(static_cast<std::size_t>(slots));
  payloads_.reserve(static_cast<std::size_t>(expected_entries) *
                    payload_width);
}

JoinHashTable::JoinHashTable(JoinHashTable&& other) noexcept
    : payload_width_(other.payload_width_),
      sealed_(other.sealed_),
      entries_(other.entries_),
      slots_(std::move(other.slots_)),
      payloads_(std::move(other.payloads_)) {
  // Leave the source a valid empty table: unsealed, with a real (if
  // minimal) slot array so SlotFor's power-of-two mask stays defined.
  other.sealed_ = false;
  other.entries_ = 0;
  other.slots_.assign(1, Slot{});
  other.payloads_.clear();
}

JoinHashTable& JoinHashTable::operator=(JoinHashTable&& other) noexcept {
  if (this == &other) return *this;
  // Overwriting a sealed table frees the payload pool its probers still
  // point into — the caller broke the build-then-probe contract.
  SMARTSSD_CHECK(!sealed_);
  payload_width_ = other.payload_width_;
  sealed_ = other.sealed_;
  entries_ = other.entries_;
  slots_ = std::move(other.slots_);
  payloads_ = std::move(other.payloads_);
  other.sealed_ = false;
  other.entries_ = 0;
  other.slots_.assign(1, Slot{});
  other.payloads_.clear();
  return *this;
}

std::size_t JoinHashTable::SlotFor(std::int64_t key) const {
  return static_cast<std::size_t>(HashKey(key) & (slots_.size() - 1));
}

Status JoinHashTable::Insert(std::int64_t key,
                             std::span<const std::byte> payload) {
  if (sealed_) {
    return FailedPreconditionError(
        "hash insert after probe: payload pointers would dangle");
  }
  if (payload.size() != payload_width_) {
    return InvalidArgumentError("hash insert: wrong payload width");
  }
  if ((entries_ + entries_ / 2) >= slots_.size()) Grow();
  std::size_t i = SlotFor(key);
  for (;;) {
    Slot& slot = slots_[i];
    if (slot.payload_offset_plus_one == 0) {
      slot.key = key;
      slot.payload_offset_plus_one = payloads_.size() + 1;
      payloads_.insert(payloads_.end(), payload.begin(), payload.end());
      ++entries_;
      return Status::OK();
    }
    if (slot.key == key) {
      return AlreadyExistsError("hash insert: duplicate join key");
    }
    i = (i + 1) & (slots_.size() - 1);
  }
}

void JoinHashTable::ProbeBatch(const std::int64_t* keys, std::size_t n,
                               const std::byte** hits) const {
  sealed_ = true;
  // Zero-width payloads still need a non-null "present" marker; all of
  // their offsets are 0.
  static constexpr std::byte kEmptyPayload{};
  const std::byte* base =
      payload_width_ == 0 ? &kEmptyPayload : payloads_.data();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t key = keys[i];
    const std::byte* hit = nullptr;
    for (std::size_t s = SlotFor(key);; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.payload_offset_plus_one == 0) break;
      if (slot.key == key) {
        hit = base + (slot.payload_offset_plus_one - 1);
        break;
      }
    }
    hits[i] = hit;
  }
}

void JoinHashTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  for (const Slot& slot : old) {
    if (slot.payload_offset_plus_one == 0) continue;
    std::size_t i = SlotFor(slot.key);
    while (slots_[i].payload_offset_plus_one != 0) {
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = slot;
  }
}

std::uint64_t JoinHashTable::EstimateBytes(std::uint64_t entries,
                                           std::uint32_t payload_width) {
  const std::uint64_t slots = NextPow2(entries + entries / 2 + 8);
  return slots * sizeof(Slot) + entries * payload_width;
}

}  // namespace smartssd::exec
