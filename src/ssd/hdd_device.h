#ifndef SMARTSSD_SSD_HDD_DEVICE_H_
#define SMARTSSD_SSD_HDD_DEVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/chunked_table.h"
#include "common/macros.h"
#include "common/result.h"
#include "sim/rate_server.h"
#include "ssd/block_device.h"

namespace smartssd::ssd {

// Mechanical disk model for the paper's 10K RPM SAS HDD baseline
// (Table 3). A single head serializes everything; sequential runs stream
// at the media rate, every discontinuity pays seek + rotational latency,
// and each command pays a fixed overhead (settle, track switches amortized
// into it). Defaults land the heap-scan effective rate in the low
// 80s MB/s, which reproduces the paper's >1,000 s Q6 elapsed time at
// SF 100.
struct HddConfig {
  std::uint32_t page_size_bytes = 8 * 1024;
  std::uint64_t num_pages = 4ull * 1024 * 1024;  // 32 GiB address space
  std::uint64_t media_bytes_per_second = 120 * kMB;
  SimDuration per_request_overhead = 1000 * kMicrosecond;
  SimDuration average_seek = 4 * kMillisecond;
  SimDuration rotational_latency = 3 * kMillisecond;  // half-turn at 10K
  DevicePowerProfile power{.active_watts = 12.5, .idle_watts = 7.0};
};

class HddDevice : public BlockDevice {
 public:
  explicit HddDevice(const HddConfig& config);

  std::string_view name() const override { return name_; }
  std::uint32_t page_size() const override {
    return config_.page_size_bytes;
  }
  std::uint64_t num_pages() const override { return config_.num_pages; }
  DevicePowerProfile power_profile() const override {
    return config_.power;
  }

  Result<SimTime> ReadPages(std::uint64_t lpn, std::uint32_t count,
                            std::span<std::byte> out,
                            SimTime ready) override;
  Result<SimTime> WritePages(std::uint64_t lpn, std::uint32_t count,
                             std::span<const std::byte> data,
                             SimTime ready) override;

  std::uint64_t seeks() const { return seeks_; }
  void ResetTiming();

 private:
  Status CheckRange(std::uint64_t lpn, std::uint32_t count,
                    std::size_t buffer_size, bool is_read) const;

  HddConfig config_;
  std::string name_ = "hdd";
  std::unique_ptr<sim::RateServer> head_;
  // Lazily allocated per-page buffers in chunks of kPagesPerChunk: the
  // address space can be large while only written pages consume host
  // memory. Unwritten pages read as zeros.
  static constexpr std::uint64_t kPagesPerChunk = 512;
  ChunkedTable<std::unique_ptr<std::byte[]>> pages_;
  std::uint64_t next_sequential_lpn_ = ~0ULL;
  std::uint64_t seeks_ = 0;
};

}  // namespace smartssd::ssd

#endif  // SMARTSSD_SSD_HDD_DEVICE_H_
