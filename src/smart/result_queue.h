#ifndef SMARTSSD_SMART_RESULT_QUEUE_H_
#define SMARTSSD_SMART_RESULT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/units.h"

namespace smartssd::smart {

// A chunk of result bytes produced inside the device, ready for pickup by
// a GET command at `ready_time`.
struct ResultChunk {
  std::vector<std::byte> data;
  SimTime ready_time = 0;
};

// Accumulates result bytes emitted by an in-SSD program into page-sized
// chunks. Programs call Append() as they produce output; the runtime
// seals a chunk when it reaches the chunk size (one device page) or at
// end of processing, stamping it with the virtual time it became
// complete.
class ResultQueue {
 public:
  explicit ResultQueue(std::uint32_t chunk_bytes)
      : chunk_bytes_(chunk_bytes) {
    SMARTSSD_CHECK_GT(chunk_bytes, 0u);
  }
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(ResultQueue);

  // Appends output produced at virtual time `produced_at`.
  void Append(std::span<const std::byte> bytes, SimTime produced_at) {
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      const std::size_t room = chunk_bytes_ - open_chunk_.size();
      const std::size_t take = std::min(room, bytes.size() - offset);
      open_chunk_.insert(open_chunk_.end(), bytes.begin() + offset,
                         bytes.begin() + offset + take);
      offset += take;
      if (open_chunk_.size() == chunk_bytes_) Seal(produced_at);
    }
    total_bytes_ += bytes.size();
    last_produce_time_ = std::max(last_produce_time_, produced_at);
  }

  // Seals any partially filled chunk (end of program).
  void Flush(SimTime at) {
    if (!open_chunk_.empty()) Seal(at);
  }

  bool HasReady(SimTime at) const {
    return !sealed_.empty() && sealed_.front().ready_time <= at;
  }
  bool empty() const { return sealed_.empty() && open_chunk_.empty(); }

  // Pops the next chunk if it is ready at `at`.
  bool PopReady(SimTime at, ResultChunk* out) {
    if (!HasReady(at)) return false;
    *out = std::move(sealed_.front());
    sealed_.pop_front();
    return true;
  }

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::size_t pending_chunks() const { return sealed_.size(); }

 private:
  void Seal(SimTime at) {
    ResultChunk chunk;
    chunk.data = std::move(open_chunk_);
    chunk.ready_time = at;
    open_chunk_ = {};
    sealed_.push_back(std::move(chunk));
  }

  std::uint32_t chunk_bytes_;
  std::vector<std::byte> open_chunk_;
  std::deque<ResultChunk> sealed_;
  std::uint64_t total_bytes_ = 0;
  SimTime last_produce_time_ = 0;
};

}  // namespace smartssd::smart

#endif  // SMARTSSD_SMART_RESULT_QUEUE_H_
