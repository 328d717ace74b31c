#ifndef SMARTSSD_FLASH_BACKING_STORE_H_
#define SMARTSSD_FLASH_BACKING_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/chunked_table.h"
#include "common/macros.h"
#include "common/status.h"
#include "flash/geometry.h"

namespace smartssd::flash {

// Holds the actual bytes of every programmed physical page. Storage is
// allocated lazily and per erase block: a block's table of page buffers
// appears at its first program and EraseBlock frees it, and a page has a
// buffer only once programmed. Host memory thus follows the pages written,
// not the array's raw capacity.
// The simulator is execution-driven — queries run over these real bytes —
// so the store is the ground truth for data content, while the timing
// model is the ground truth for when those bytes become visible.
class BackingStore {
 public:
  explicit BackingStore(const Geometry& geometry)
      : geometry_(geometry),
        pages_(geometry.total_pages(), geometry.pages_per_block) {}
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(BackingStore);

  std::uint32_t page_size() const { return geometry_.page_size_bytes; }

  bool IsProgrammed(std::uint64_t page_index) const {
    return pages_.Get(page_index) != nullptr;
  }

  // Copies `data` into the page. `data` may be shorter than a page; the
  // remainder is zero-filled (matching a partially used final page).
  // These are I/O paths reachable from injected faults and firmware bugs,
  // so violations surface as Status instead of aborting the process.
  Status Program(std::uint64_t page_index, std::span<const std::byte> data) {
    if (data.size() > page_size()) {
      return InvalidArgumentError("backing store: data larger than a page");
    }
    std::unique_ptr<std::byte[]>& slot = pages_.Mutable(page_index);
    if (slot != nullptr) {
      // NAND rule: a programmed page must be erased before reprogramming.
      return FailedPreconditionError(
          "backing store: program over a programmed page");
    }
    slot = std::make_unique<std::byte[]>(page_size());
    std::copy(data.begin(), data.end(), slot.get());
    std::fill(slot.get() + data.size(), slot.get() + page_size(),
              std::byte{0});
    allocated_bytes_ += page_size();
    return Status::OK();
  }

  // Copies the page contents into `out` (must be >= page_size). An erased
  // page reads as zeros.
  Status Read(std::uint64_t page_index, std::span<std::byte> out) const {
    if (out.size() < page_size()) {
      return InvalidArgumentError(
          "backing store: output buffer smaller than a page");
    }
    const std::unique_ptr<std::byte[]>& slot = pages_.Get(page_index);
    if (slot == nullptr) {
      std::fill(out.begin(), out.begin() + page_size(), std::byte{0});
      return Status::OK();
    }
    std::copy(slot.get(), slot.get() + page_size(), out.begin());
    return Status::OK();
  }

  // Zero-copy view of a programmed page, or empty span for an erased one.
  // Valid until the containing block is erased.
  std::span<const std::byte> View(std::uint64_t page_index) const {
    const std::unique_ptr<std::byte[]>& slot = pages_.Get(page_index);
    if (slot == nullptr) return {};
    return {slot.get(), page_size()};
  }

  // Drops the contents of every page in block `block_index` (a flat
  // index, see flash::BlockIndex) and frees the block's table.
  void EraseBlock(std::uint64_t block_index) {
    for (const auto& slot : pages_.chunk(block_index)) {
      if (slot != nullptr) allocated_bytes_ -= page_size();
    }
    pages_.ResetChunk(block_index);
  }

  // Bytes held in page buffers (page_size() per programmed page).
  std::uint64_t allocated_bytes() const { return allocated_bytes_; }

 private:
  Geometry geometry_;
  // Page buffers, chunked by erase block.
  ChunkedTable<std::unique_ptr<std::byte[]>> pages_;
  std::uint64_t allocated_bytes_ = 0;
};

}  // namespace smartssd::flash

#endif  // SMARTSSD_FLASH_BACKING_STORE_H_
