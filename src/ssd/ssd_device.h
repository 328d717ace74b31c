#ifndef SMARTSSD_SSD_SSD_DEVICE_H_
#define SMARTSSD_SSD_SSD_DEVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "flash/flash_array.h"
#include "ftl/ftl.h"
#include "sim/fault_injector.h"
#include "sim/rate_server.h"
#include "ssd/block_device.h"
#include "ssd/ssd_config.h"

namespace smartssd::ssd {

// The full SSD: NAND array + FTL + controller resources. Three controller
// resources are modelled explicitly because they are where the paper's
// performance story lives:
//
//   * the DRAM/DMA bus — every page coming off any flash channel must
//     cross it, serialized ("the access to the DRAM is shared by all the
//     flash channels ... which then becomes the bottleneck"), capping the
//     internal read bandwidth at 1,560 MB/s;
//   * the host interface link — 550 MB/s effective for 6 Gbps SAS, the
//     "narrow straw" of Figure 1;
//   * the embedded CPU complex — a few low-power cores that run the FTL
//     and, on a Smart SSD, the pushed-down query operators.
//
// A host read crosses flash -> DRAM -> host link. An *internal* read (the
// Smart SSD path) stops at DRAM, which is why it runs at 1,560 MB/s
// instead of 550 MB/s: that 2.8x is Table 2.
class SsdDevice : public BlockDevice {
 public:
  explicit SsdDevice(const SsdConfig& config);

  std::string_view name() const override { return name_; }
  // Per-device identity in a multi-device fleet ("ssd0", "ssd1", ...);
  // the name lands in QueryStats::device_name and trace track labels.
  void set_name(std::string name) { name_ = std::move(name); }
  std::uint32_t page_size() const override { return ftl_->page_size(); }
  std::uint64_t num_pages() const override {
    return ftl_->logical_pages();
  }
  DevicePowerProfile power_profile() const override {
    return config_.power;
  }

  Result<SimTime> ReadPages(std::uint64_t lpn, std::uint32_t count,
                            std::span<std::byte> out,
                            SimTime ready) override;
  Result<SimTime> WritePages(std::uint64_t lpn, std::uint32_t count,
                             std::span<const std::byte> data,
                             SimTime ready) override;

  // --- Device-internal interfaces (used by the Smart SSD runtime) ---

  // Reads a page into device DRAM: flash + DMA only, no host link.
  Result<SimTime> InternalReadPage(std::uint64_t lpn,
                                   std::span<std::byte> out, SimTime ready);

  // Timing-only internal read; pair with ViewPage().
  Result<SimTime> InternalReadPageTiming(std::uint64_t lpn, SimTime ready);

  // Writes a page from device DRAM to flash: DMA + out-of-place FTL
  // program (GC and all), no host link. The spill path of the hybrid
  // hash join writes partitions through this.
  Result<SimTime> InternalWritePage(std::uint64_t lpn,
                                    std::span<const std::byte> data,
                                    SimTime ready);

  // --- Spill extent allocator ---------------------------------------
  // Sessions spilling join partitions borrow logical pages from the top
  // of the LPN space, growing downward, while the catalog's bump
  // allocator grows upward from 0. set_spill_floor() tells the device
  // where the catalog's allocations end; an allocation that would cross
  // the floor is refused. Released extents are trimmed (invalidating
  // their flash pages for GC) and kept on an exact-fit free list so a
  // rerun of the same query reuses the same LPNs — determinism for the
  // differential harness.
  void set_spill_floor(std::uint64_t first_reserved_lpn) {
    spill_floor_ = first_reserved_lpn;
  }
  Result<std::uint64_t> AllocateSpillExtent(std::uint64_t pages);
  void ReleaseSpillExtent(std::uint64_t first_lpn, std::uint64_t pages);
  // Logical pages currently held by live spill extents; zero when the
  // device is idle (leak check, mirrors the DRAM grant invariant).
  std::uint64_t spill_pages_held() const { return spill_pages_held_; }

  // Zero-copy view of a mapped page's bytes (content as of now; the
  // timing of visibility comes from InternalReadPageTiming).
  std::span<const std::byte> ViewPage(std::uint64_t lpn) const {
    return ftl_->View(lpn);
  }

  // Runs `cycles` of work on the embedded CPU complex (one task on one
  // core). Returns completion time.
  SimTime ExecuteOnDevice(std::uint64_t cycles, SimTime ready);

  // Moves `bytes` from device DRAM to the host across the host link
  // (result tuples of a pushed-down operator).
  SimTime TransferToHost(std::uint64_t bytes, SimTime ready);

  // One host->device command round (OPEN/GET/CLOSE and friends).
  SimTime HostCommand(SimTime ready);

  // Device DRAM accounting for Smart SSD sessions (hash tables, result
  // buffers). Returns RESOURCE_EXHAUSTED when the working set would not
  // fit — the planner then refuses the pushdown.
  Status AllocateDeviceDram(std::uint64_t bytes);
  void ReleaseDeviceDram(std::uint64_t bytes);
  std::uint64_t device_dram_free() const {
    return config_.dram.capacity_bytes - dram_used_;
  }

  // Session thread grants: every open Smart SSD session holds one
  // firmware thread (Section 3's OPEN grants a thread + memory). The
  // pool size is config().embedded_cpu.session_threads (0 = one per
  // embedded core); when it is empty, further OPENs are rejected with
  // RESOURCE_EXHAUSTED and the host queues the query until a grant
  // frees.
  Status AcquireSessionThread();
  void ReleaseSessionThread();
  int session_threads_total() const {
    return config_.embedded_cpu.session_threads > 0
               ? config_.embedded_cpu.session_threads
               : config_.embedded_cpu.cores;
  }
  int session_threads_free() const {
    return session_threads_total() - session_threads_used_;
  }

  const SsdConfig& config() const { return config_; }
  flash::FlashArray& flash_array() { return *array_; }
  const flash::FlashArray& flash_array() const { return *array_; }
  ftl::Ftl& ftl() { return *ftl_; }

  // The device-wide fault injector, shared with the flash array and the
  // smart runtime. Load a schedule to make the device misbehave
  // deterministically; an empty injector never fires.
  sim::FaultInjector& fault_injector() { return fault_injector_; }
  const sim::FaultInjector& fault_injector() const {
    return fault_injector_;
  }

  SimDuration dma_busy() const { return dma_->busy_time(); }
  SimDuration host_link_busy() const { return host_link_->busy_time(); }
  SimDuration embedded_cpu_busy() const { return embedded_->busy_time(); }
  std::uint64_t embedded_cores() const {
    return static_cast<std::uint64_t>(config_.embedded_cpu.cores);
  }

  // Drops all timing state (not data). Used between benchmark phases so
  // load-time queueing does not bleed into measured queries.
  void ResetTiming();

  // Puts every controller resource on its own trace lane under
  // `process`: flash channels, DRAM bus(es), embedded cores, the host
  // link, plus the FTL GC lane and the fault-injector lane. nullptr
  // detaches the device-side lanes.
  void AttachTracer(obs::Tracer* tracer, std::string_view process);

  // Registers flash/FTL instruments on `metrics` (see the layers'
  // AttachMetrics). nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* metrics);

 private:
  SsdConfig config_;
  std::string name_ = "ssd";
  sim::FaultInjector fault_injector_;
  std::unique_ptr<flash::FlashArray> array_;
  std::unique_ptr<ftl::Ftl> ftl_;
  std::unique_ptr<sim::ParallelServer> dma_;        // DRAM bus(es)
  std::unique_ptr<sim::RateServer> host_link_;      // SATA/SAS link
  std::unique_ptr<sim::ParallelServer> embedded_;   // ARM cores
  SimDuration dma_page_time_ = 0;
  std::uint64_t dram_used_ = 0;
  int session_threads_used_ = 0;

  // Spill extent allocator state (see set_spill_floor).
  std::uint64_t spill_floor_ = 0;
  std::uint64_t spill_next_ = 0;  // lowest LPN handed out so far
  std::uint64_t spill_pages_held_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spill_free_;
};

}  // namespace smartssd::ssd

#endif  // SMARTSSD_SSD_SSD_DEVICE_H_
