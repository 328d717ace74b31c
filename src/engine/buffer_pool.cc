#include "engine/buffer_pool.h"

#include <algorithm>
#include <utility>

namespace smartssd::engine {

BufferPool::BufferPool(ssd::BlockDevice* device,
                       std::uint64_t capacity_pages)
    : device_(device) {
  SMARTSSD_CHECK(device != nullptr);
  SMARTSSD_CHECK_GE(capacity_pages, kReadAheadPages);
  SMARTSSD_CHECK_LT(capacity_pages, std::uint64_t{kNoFrame});
  frames_.resize(static_cast<std::size_t>(capacity_pages));
  for (Frame& frame : frames_) {
    frame.data.resize(device->page_size());
  }
  io_buffer_.resize(static_cast<std::size_t>(kReadAheadPages) *
                    device->page_size());
  std::size_t slots = 1;
  int bits = 0;
  while (slots < 2 * frames_.size()) {
    slots *= 2;
    ++bits;
  }
  index_.resize(slots);
  index_shift_ = 64 - bits;
}

std::size_t BufferPool::HomeSlot(std::uint64_t lpn) const {
  // Fibonacci hashing: the multiply spreads the pool's runs of
  // consecutive lpns over the table; the top bits pick the slot (the
  // table has at least 64 slots, so the shift is below 64).
  return static_cast<std::size_t>((lpn * 0x9E3779B97F4A7C15ull) >>
                                  index_shift_);
}

const BufferPool::Frame* BufferPool::FindFrame(std::uint64_t lpn) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = HomeSlot(lpn);; i = (i + 1) & mask) {
    const IndexSlot& slot = index_[i];
    if (slot.frame == kNoFrame) return nullptr;
    if (slot.lpn == lpn) return &frames_[slot.frame];
  }
}

BufferPool::Frame* BufferPool::FindFrame(std::uint64_t lpn) {
  return const_cast<Frame*>(std::as_const(*this).FindFrame(lpn));
}

void BufferPool::IndexInsert(std::uint64_t lpn, std::uint32_t frame) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = HomeSlot(lpn);
  while (index_[i].frame != kNoFrame) i = (i + 1) & mask;
  index_[i] = IndexSlot{lpn, frame};
}

void BufferPool::IndexErase(std::uint64_t lpn) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = HomeSlot(lpn);
  while (index_[hole].lpn != lpn || index_[hole].frame == kNoFrame) {
    SMARTSSD_CHECK(index_[hole].frame != kNoFrame);
    hole = (hole + 1) & mask;
  }
  // Backward shift: move each later entry of the run whose home slot
  // does not lie cyclically in (hole, j] into the hole, so every entry
  // stays reachable from its home slot without tombstones.
  for (std::size_t j = (hole + 1) & mask; index_[j].frame != kNoFrame;
       j = (j + 1) & mask) {
    const std::size_t home = HomeSlot(index_[j].lpn);
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    index_[hole] = index_[j];
    hole = j;
  }
  index_[hole] = IndexSlot{};
}

bool BufferPool::IsCached(std::uint64_t lpn) const {
  return FindFrame(lpn) != nullptr;
}

std::span<const std::byte> BufferPool::CachedPage(std::uint64_t lpn) const {
  const Frame* frame = FindFrame(lpn);
  return frame != nullptr ? std::span<const std::byte>(frame->data)
                          : std::span<const std::byte>();
}

bool BufferPool::IsDirty(std::uint64_t lpn) const {
  const Frame* frame = FindFrame(lpn);
  return frame != nullptr && frame->dirty;
}

bool BufferPool::HasDirtyInRange(std::uint64_t first_lpn,
                                 std::uint64_t count) const {
  // The pool is small relative to table extents, so walk the frames.
  for (const Frame& frame : frames_) {
    if (frame.valid && frame.dirty && frame.lpn >= first_lpn &&
        frame.lpn < first_lpn + count) {
      return true;
    }
  }
  return false;
}

std::uint64_t BufferPool::CachedInRange(std::uint64_t first_lpn,
                                        std::uint64_t count) const {
  std::uint64_t cached = 0;
  for (const Frame& frame : frames_) {
    if (frame.valid && frame.lpn >= first_lpn &&
        frame.lpn < first_lpn + count) {
      ++cached;
    }
  }
  return cached;
}

Result<std::size_t> BufferPool::Evict(SimTime ready, SimTime* io_done,
                                      std::uint64_t pending_lpn,
                                      std::span<std::byte> pending) {
  for (std::size_t sweep = 0; sweep < 2 * frames_.size() + 1; ++sweep) {
    Frame& frame = frames_[clock_hand_];
    const std::size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (!frame.valid) return index;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    if (frame.dirty) {
      SMARTSSD_ASSIGN_OR_RETURN(
          *io_done, device_->WritePages(frame.lpn, 1, frame.data,
                                        std::max(ready, *io_done)));
      frame.dirty = false;
      const std::size_t page_size = frame.data.size();
      if (frame.lpn >= pending_lpn &&
          frame.lpn - pending_lpn < pending.size() / page_size) {
        std::copy(frame.data.begin(), frame.data.end(),
                  pending.begin() + static_cast<std::ptrdiff_t>(
                                        (frame.lpn - pending_lpn) * page_size));
      }
    }
    IndexErase(frame.lpn);
    frame.valid = false;
    obs::BumpCounter(m_evictions_);
    return index;
  }
  return InternalError("buffer pool eviction failed to find a victim");
}

Result<SimTime> BufferPool::InstallRange(std::uint64_t lpn,
                                         std::uint32_t count,
                                         SimTime ready) {
  const std::uint32_t page_size = device_->page_size();
  SimTime io_done = ready;
  SMARTSSD_ASSIGN_OR_RETURN(
      io_done,
      device_->ReadPages(
          lpn, count,
          std::span<std::byte>(io_buffer_.data(),
                               static_cast<std::size_t>(count) * page_size),
          ready));
  for (std::uint32_t i = 0; i < count; ++i) {
    if (IsCached(lpn + i)) continue;  // already resident
    SimTime flush_done = io_done;
    // Pages after this one are read but not yet placed.
    SMARTSSD_ASSIGN_OR_RETURN(
        const std::size_t frame_index,
        Evict(ready, &flush_done, lpn + i + 1,
              std::span<std::byte>(io_buffer_).subspan(
                  static_cast<std::size_t>(i + 1) * page_size,
                  static_cast<std::size_t>(count - i - 1) * page_size)));
    io_done = std::max(io_done, flush_done);
    Frame& frame = frames_[frame_index];
    frame.lpn = lpn + i;
    frame.valid = true;
    frame.dirty = false;
    frame.referenced = true;
    frame.available_at = io_done;
    std::copy_n(io_buffer_.begin() +
                    static_cast<std::size_t>(i) * page_size,
                page_size, frame.data.begin());
    IndexInsert(lpn + i, static_cast<std::uint32_t>(frame_index));
  }
  return io_done;
}

Result<std::pair<std::span<const std::byte>, SimTime>> BufferPool::GetPage(
    std::uint64_t lpn, SimTime ready, std::uint64_t limit_lpn) {
  if (Frame* frame = FindFrame(lpn); frame != nullptr) {
    ++hits_;
    obs::BumpCounter(m_hits_);
    frame->referenced = true;
    return std::make_pair(std::span<const std::byte>(frame->data),
                          std::max(ready, frame->available_at));
  }
  ++misses_;
  obs::BumpCounter(m_misses_);
  if (limit_lpn <= lpn) limit_lpn = lpn + 1;
  const std::uint32_t count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(kReadAheadPages, limit_lpn - lpn));
  SMARTSSD_ASSIGN_OR_RETURN(const SimTime io_done,
                            InstallRange(lpn, count, ready));
  const Frame* frame = FindFrame(lpn);
  SMARTSSD_CHECK(frame != nullptr);
  return std::make_pair(std::span<const std::byte>(frame->data), io_done);
}

Result<SimTime> BufferPool::WritePage(std::uint64_t lpn,
                                      std::span<const std::byte> data,
                                      SimTime ready) {
  if (data.size() != device_->page_size()) {
    return InvalidArgumentError("buffer pool write: wrong page size");
  }
  SimTime t = ready;
  if (!IsCached(lpn)) {
    SMARTSSD_ASSIGN_OR_RETURN(t, InstallRange(lpn, 1, ready));
  }
  Frame* frame = FindFrame(lpn);
  SMARTSSD_CHECK(frame != nullptr);
  std::copy(data.begin(), data.end(), frame->data.begin());
  frame->dirty = true;
  frame->referenced = true;
  frame->available_at = t;
  return t;
}

Result<SimTime> BufferPool::FlushPage(std::uint64_t lpn, SimTime ready) {
  Frame* frame = FindFrame(lpn);
  if (frame == nullptr || !frame->dirty) return ready;
  SMARTSSD_ASSIGN_OR_RETURN(
      const SimTime t,
      device_->WritePages(frame->lpn, 1, frame->data,
                          std::max(ready, frame->available_at)));
  frame->dirty = false;
  return t;
}

std::optional<std::uint64_t> BufferPool::NextDirtyInRange(
    std::uint64_t first_lpn, std::uint64_t count) const {
  std::optional<std::uint64_t> best;
  for (const Frame& frame : frames_) {
    if (frame.valid && frame.dirty && frame.lpn >= first_lpn &&
        frame.lpn < first_lpn + count &&
        (!best.has_value() || frame.lpn < *best)) {
      best = frame.lpn;
    }
  }
  return best;
}

Result<SimTime> BufferPool::FlushAll(SimTime ready) {
  SimTime t = ready;
  for (Frame& frame : frames_) {
    if (frame.valid && frame.dirty) {
      SMARTSSD_ASSIGN_OR_RETURN(
          t, device_->WritePages(frame.lpn, 1, frame.data, t));
      frame.dirty = false;
    }
  }
  return t;
}

void BufferPool::Clear() {
  for (Frame& frame : frames_) {
    SMARTSSD_CHECK(!frame.dirty);  // flush before clearing
    frame.valid = false;
    frame.referenced = false;
  }
  std::fill(index_.begin(), index_.end(), IndexSlot{});
  clock_hand_ = 0;
}

void BufferPool::AttachMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_hits_ = nullptr;
    m_misses_ = nullptr;
    m_evictions_ = nullptr;
    return;
  }
  m_hits_ = metrics->counter("bufferpool.hits");
  m_misses_ = metrics->counter("bufferpool.misses");
  m_evictions_ = metrics->counter("bufferpool.evictions");
}

}  // namespace smartssd::engine
