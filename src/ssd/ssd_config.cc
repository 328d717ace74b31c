#include "ssd/ssd_config.h"

namespace smartssd::ssd {

std::uint64_t EffectiveBytesPerSecond(HostInterfaceStandard standard) {
  switch (standard) {
    case HostInterfaceStandard::kSata3g:
      return 275 * kMB;
    case HostInterfaceStandard::kSata6g:
      return 550 * kMB;
    case HostInterfaceStandard::kSas6g:
      return 550 * kMB;
    case HostInterfaceStandard::kSas12g:
      return 1100 * kMB;
    case HostInterfaceStandard::kPcie3x4:
      return 3200 * kMB;
  }
  return 550 * kMB;
}

SsdConfig SsdConfig::PaperSsd() {
  SsdConfig config;
  // 8 channels x 4 chips; channel buses aggregate to 2,640 MB/s, well
  // above the single DRAM bus (1,560 MB/s), so the DRAM bus is the
  // internal bottleneck — exactly the situation Section 4.2 describes.
  config.geometry.channels = 8;
  config.geometry.chips_per_channel = 4;
  config.geometry.blocks_per_chip = 512;
  config.geometry.pages_per_block = 128;
  config.geometry.page_size_bytes = 8 * kKiB;
  config.host_interface.standard = HostInterfaceStandard::kSas6g;
  config.dram.bus_count = 1;
  config.dram.bus_bytes_per_second = 1560 * kMB;
  config.power = {.active_watts = 8.0, .idle_watts = 1.2};
  return config;
}

SsdConfig SsdConfig::PaperSmartSsd() {
  SsdConfig config = PaperSsd();
  // Same drive; running user code on the embedded cores raises active
  // power a little.
  config.power = {.active_watts = 10.0, .idle_watts = 1.2};
  return config;
}

}  // namespace smartssd::ssd
