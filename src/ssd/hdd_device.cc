#include "ssd/hdd_device.h"

#include <algorithm>

namespace smartssd::ssd {

HddDevice::HddDevice(const HddConfig& config)
    : config_(config),
      head_(std::make_unique<sim::RateServer>("hdd_head")),
      pages_(config.num_pages, kPagesPerChunk) {}

Status HddDevice::CheckRange(std::uint64_t lpn, std::uint32_t count,
                             std::size_t buffer_size, bool is_read) const {
  if (lpn + count > config_.num_pages) {
    return OutOfRangeError("hdd: page range beyond capacity");
  }
  const std::size_t needed =
      static_cast<std::size_t>(count) * config_.page_size_bytes;
  if (buffer_size < needed && (is_read ? buffer_size != 0 : true)) {
    return InvalidArgumentError("hdd: buffer too small");
  }
  return Status::OK();
}

Result<SimTime> HddDevice::ReadPages(std::uint64_t lpn, std::uint32_t count,
                                     std::span<std::byte> out,
                                     SimTime ready) {
  if (count == 0) return ready;
  SMARTSSD_RETURN_IF_ERROR(CheckRange(lpn, count, out.size(), true));
  SimDuration service = config_.per_request_overhead;
  if (lpn != next_sequential_lpn_) {
    service += config_.average_seek + config_.rotational_latency;
    ++seeks_;
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(count) * config_.page_size_bytes;
  service += TransferTime(bytes, config_.media_bytes_per_second);
  const SimTime done = head_->Serve(ready, service);
  next_sequential_lpn_ = lpn + count;
  if (!out.empty()) {
    for (std::uint32_t i = 0; i < count; ++i) {
      std::byte* dst = out.data() +
                       static_cast<std::size_t>(i) * config_.page_size_bytes;
      const auto& page = pages_.Get(lpn + i);
      if (page == nullptr) {
        std::fill_n(dst, config_.page_size_bytes, std::byte{0});
      } else {
        std::copy_n(page.get(), config_.page_size_bytes, dst);
      }
    }
  }
  return done;
}

Result<SimTime> HddDevice::WritePages(std::uint64_t lpn,
                                      std::uint32_t count,
                                      std::span<const std::byte> data,
                                      SimTime ready) {
  if (count == 0) return ready;
  SMARTSSD_RETURN_IF_ERROR(CheckRange(lpn, count, data.size(), false));
  SimDuration service = config_.per_request_overhead;
  if (lpn != next_sequential_lpn_) {
    service += config_.average_seek + config_.rotational_latency;
    ++seeks_;
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(count) * config_.page_size_bytes;
  service += TransferTime(bytes, config_.media_bytes_per_second);
  const SimTime done = head_->Serve(ready, service);
  next_sequential_lpn_ = lpn + count;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto& page = pages_.Mutable(lpn + i);
    if (page == nullptr) {
      page = std::make_unique<std::byte[]>(config_.page_size_bytes);
    }
    std::copy_n(data.data() +
                    static_cast<std::size_t>(i) * config_.page_size_bytes,
                config_.page_size_bytes, page.get());
  }
  return done;
}

void HddDevice::ResetTiming() {
  head_->Reset();
  next_sequential_lpn_ = ~0ULL;
  seeks_ = 0;
}

}  // namespace smartssd::ssd
