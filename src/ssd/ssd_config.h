#ifndef SMARTSSD_SSD_SSD_CONFIG_H_
#define SMARTSSD_SSD_SSD_CONFIG_H_

#include <cstdint>

#include "common/units.h"
#include "flash/geometry.h"
#include "ftl/ftl.h"
#include "ssd/block_device.h"

namespace smartssd::ssd {

// Host interface standards with their effective (payload) bandwidths.
// Raw line rates are higher; the effective numbers below include framing
// and protocol overhead, matching the paper's measured 550 MB/s for the
// 6 Gbps SAS link (Table 2).
enum class HostInterfaceStandard {
  kSata3g,   // 3 Gbps SATA,  ~275 MB/s effective
  kSata6g,   // 6 Gbps SATA,  ~550 MB/s effective
  kSas6g,    // 6 Gbps SAS,   ~550 MB/s effective (the paper's device)
  kSas12g,   // 12 Gbps SAS,  ~1100 MB/s effective
  kPcie3x4,  // PCIe gen3 x4, ~3200 MB/s effective
};

std::uint64_t EffectiveBytesPerSecond(HostInterfaceStandard standard);

struct HostInterfaceConfig {
  HostInterfaceStandard standard = HostInterfaceStandard::kSas6g;
  // Per-command processing latency (protocol + firmware dispatch).
  SimDuration command_latency = 20 * kMicrosecond;
};

struct DramConfig {
  std::uint64_t capacity_bytes = 512 * kMiB;
  // All flash channels DMA into DRAM through this many buses. The paper's
  // device has effectively ONE ("only one channel can be active at a
  // time"), which caps internal bandwidth at 1,560 MB/s despite the
  // channels' higher aggregate rate. Raising this is the paper's own
  // suggested fix ("increasing the bandwidth to the DRAM or adding more
  // DRAM buses") and is our ablation knob.
  int bus_count = 1;
  std::uint64_t bus_bytes_per_second = 1560 * kMB;
};

struct EmbeddedCpuConfig {
  // Low-power in-order cores (ARM-class), as in Section 2.
  int cores = 3;
  std::uint64_t clock_hz = 400ull * 1000 * 1000;  // 400 MHz
  // Concurrent Smart SSD sessions the firmware will grant a thread to
  // (Section 3's OPEN grants "a thread and some amount of memory"; the
  // thread pool is what bounds in-device concurrency). 0 means one
  // session thread per core. An OPEN past the limit is rejected with
  // RESOURCE_EXHAUSTED and the host queues the query until a grant
  // frees.
  int session_threads = 0;
};

struct SsdConfig {
  flash::Geometry geometry;
  flash::Timings timings;
  ftl::FtlConfig ftl;
  HostInterfaceConfig host_interface;
  DramConfig dram;
  EmbeddedCpuConfig embedded_cpu;
  DevicePowerProfile power{.active_watts = 8.0, .idle_watts = 1.2};

  // The paper's regular SAS SSD (its Smart twin differs only in the
  // enabled runtime and a slightly higher active power).
  static SsdConfig PaperSsd();
  static SsdConfig PaperSmartSsd();

  // Small geometry for unit tests (fast to fill and GC).
  static SsdConfig Tiny();
};

}  // namespace smartssd::ssd

#endif  // SMARTSSD_SSD_SSD_CONFIG_H_
