#ifndef SMARTSSD_COMMON_CHUNKED_TABLE_H_
#define SMARTSSD_COMMON_CHUNKED_TABLE_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/macros.h"

namespace smartssd {

// A fixed-length table whose entries live in equal-size chunks, each
// allocated at the first write into it. Every entry of a chunk that was
// never written (or was reset) reads as the table's fill value. Host
// memory is therefore one pointer per chunk plus `chunk_size` entries per
// chunk written, not the table's length: the simulator sizes device state
// (flash pages, FTL maps, a disk image) by a drive's raw capacity, while
// a run writes a sliver of it. Callers bound-check indices.
template <typename T>
class ChunkedTable {
 public:
  // Every entry starts as T{} (an owning pointer starts empty).
  ChunkedTable(std::uint64_t size, std::uint64_t chunk_size)
      : chunk_size_(chunk_size),
        chunks_(static_cast<std::size_t>(
            chunk_size == 0 ? 0 : (size + chunk_size - 1) / chunk_size)) {
    SMARTSSD_CHECK_GT(chunk_size, 0u);
  }
  // Every entry starts as `fill`.
  ChunkedTable(std::uint64_t size, std::uint64_t chunk_size, const T& fill)
    requires std::copyable<T>
      : ChunkedTable(size, chunk_size) {
    fill_ = fill;
  }

  // Reads entry `i` without allocating.
  const T& Get(std::uint64_t i) const {
    const std::unique_ptr<T[]>& chunk = chunks_[i / chunk_size_];
    return chunk == nullptr ? fill_ : chunk[i % chunk_size_];
  }

  // Writable entry `i`; allocates its chunk on first use.
  T& Mutable(std::uint64_t i) {
    std::unique_ptr<T[]>& chunk = chunks_[i / chunk_size_];
    if (chunk == nullptr) chunk = NewChunk();
    return chunk[i % chunk_size_];
  }

  // The entries of chunk `c`, or an empty span if it is not allocated.
  std::span<const T> chunk(std::uint64_t c) const {
    if (chunks_[c] == nullptr) return {};
    return {chunks_[c].get(), static_cast<std::size_t>(chunk_size_)};
  }

  // Frees chunk `c`; its entries read as the fill value again.
  void ResetChunk(std::uint64_t c) { chunks_[c].reset(); }

 private:
  std::unique_ptr<T[]> NewChunk() const {
    if constexpr (std::copyable<T>) {
      auto chunk = std::make_unique_for_overwrite<T[]>(chunk_size_);
      std::fill_n(chunk.get(), chunk_size_, fill_);
      return chunk;
    } else {
      return std::make_unique<T[]>(chunk_size_);
    }
  }

  std::uint64_t chunk_size_;
  T fill_{};
  std::vector<std::unique_ptr<T[]>> chunks_;
};

}  // namespace smartssd

#endif  // SMARTSSD_COMMON_CHUNKED_TABLE_H_
