#include "ssd/ssd_device.h"

#include <algorithm>

namespace smartssd::ssd {

SsdDevice::SsdDevice(const SsdConfig& config) : config_(config) {
  array_ =
      std::make_unique<flash::FlashArray>(config.geometry, config.timings);
  array_->set_fault_injector(&fault_injector_);
  ftl_ = std::make_unique<ftl::Ftl>(array_.get(), config.ftl);
  dma_ = std::make_unique<sim::ParallelServer>("dram_bus",
                                               config.dram.bus_count);
  host_link_ = std::make_unique<sim::RateServer>("host_link");
  embedded_ = std::make_unique<sim::ParallelServer>(
      "embedded_cpu", config.embedded_cpu.cores);
  dma_page_time_ = TransferTime(config.geometry.page_size_bytes,
                                config.dram.bus_bytes_per_second);
}

Result<SimTime> SsdDevice::InternalReadPageTiming(std::uint64_t lpn,
                                                  SimTime ready) {
  SMARTSSD_ASSIGN_OR_RETURN(const SimTime at_controller,
                            ftl_->ReadTiming(lpn, ready));
  // DMA from the channel controller into shared DRAM.
  return dma_->Serve(at_controller, dma_page_time_, "page dma");
}

Result<SimTime> SsdDevice::InternalWritePage(
    std::uint64_t lpn, std::span<const std::byte> data, SimTime ready) {
  // The mirror of an internal read: the page crosses the shared DRAM
  // bus into the channel controller, then the FTL programs it
  // out-of-place (triggering GC like any other write). No host link.
  const SimTime at_controller =
      dma_->Serve(ready, dma_page_time_, "spill dma");
  return ftl_->Write(lpn, data, at_controller);
}

Result<std::uint64_t> SsdDevice::AllocateSpillExtent(std::uint64_t pages) {
  if (pages == 0) {
    return InvalidArgumentError("spill extent: zero pages");
  }
  if (spill_next_ == 0) spill_next_ = ftl_->logical_pages();
  // Exact-fit reuse first, so a rerun of the same query walks the same
  // LPN sequence.
  for (auto it = spill_free_.begin(); it != spill_free_.end(); ++it) {
    if (it->second == pages) {
      const std::uint64_t lpn = it->first;
      spill_free_.erase(it);
      spill_pages_held_ += pages;
      return lpn;
    }
  }
  if (spill_next_ < spill_floor_ + pages) {
    return ResourceExhaustedError(
        "spill extent: flash exhausted above the catalog floor");
  }
  spill_next_ -= pages;
  spill_pages_held_ += pages;
  return spill_next_;
}

void SsdDevice::ReleaseSpillExtent(std::uint64_t first_lpn,
                                   std::uint64_t pages) {
  SMARTSSD_CHECK_LE(pages, spill_pages_held_);
  spill_pages_held_ -= pages;
  // TRIM the pages so GC reclaims the flash they occupied.
  for (std::uint64_t i = 0; i < pages; ++i) {
    if (ftl_->IsMapped(first_lpn + i)) {
      (void)ftl_->Trim(first_lpn + i);
    }
  }
  spill_free_.emplace_back(first_lpn, pages);
}

Result<SimTime> SsdDevice::InternalReadPage(std::uint64_t lpn,
                                            std::span<std::byte> out,
                                            SimTime ready) {
  SMARTSSD_ASSIGN_OR_RETURN(const SimTime done,
                            InternalReadPageTiming(lpn, ready));
  if (!out.empty()) {
    std::span<const std::byte> view = ftl_->View(lpn);
    if (view.empty()) {
      std::fill(out.begin(),
                out.begin() +
                    std::min<std::size_t>(out.size(), page_size()),
                std::byte{0});
    } else {
      std::copy(view.begin(), view.end(), out.begin());
    }
  }
  return done;
}

Result<SimTime> SsdDevice::ReadPages(std::uint64_t lpn, std::uint32_t count,
                                     std::span<std::byte> out,
                                     SimTime ready) {
  if (count == 0) return ready;
  if (!out.empty() &&
      out.size() < static_cast<std::size_t>(count) * page_size()) {
    return InvalidArgumentError("ssd read: output buffer too small");
  }
  // One command: command latency once, then pages stream through the
  // pipeline (flash -> DRAM -> host link), each stage a FIFO server.
  SimTime t = ready + config_.host_interface.command_latency;
  const SimDuration link_page_time = TransferTime(
      page_size(), EffectiveBytesPerSecond(config_.host_interface.standard));
  SimTime last = t;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::span<std::byte> page_out =
        out.empty() ? std::span<std::byte>{}
                    : out.subspan(static_cast<std::size_t>(i) * page_size(),
                                  page_size());
    SMARTSSD_ASSIGN_OR_RETURN(const SimTime in_dram,
                              InternalReadPage(lpn + i, page_out, t));
    if (fault_injector_.OnBytes(sim::FaultKind::kTransferError, page_size(),
                                in_dram)) {
      return IoError("host interface transfer error (injected fault)");
    }
    last = host_link_->Serve(in_dram, link_page_time, "page to host");
  }
  return last;
}

Result<SimTime> SsdDevice::WritePages(std::uint64_t lpn, std::uint32_t count,
                                      std::span<const std::byte> data,
                                      SimTime ready) {
  if (count == 0) return ready;
  if (data.size() < static_cast<std::size_t>(count) * page_size()) {
    return InvalidArgumentError("ssd write: data buffer too small");
  }
  SimTime t = ready + config_.host_interface.command_latency;
  const SimDuration link_page_time = TransferTime(
      page_size(), EffectiveBytesPerSecond(config_.host_interface.standard));
  SimTime last = t;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (fault_injector_.OnBytes(sim::FaultKind::kTransferError, page_size(),
                                t)) {
      return IoError("host interface transfer error (injected fault)");
    }
    const SimTime at_device =
        host_link_->Serve(t, link_page_time, "page to device");
    const SimTime in_dram =
        dma_->Serve(at_device, dma_page_time_, "page dma");
    SMARTSSD_ASSIGN_OR_RETURN(
        last, ftl_->Write(lpn + i,
                          data.subspan(
                              static_cast<std::size_t>(i) * page_size(),
                              page_size()),
                          in_dram));
  }
  return last;
}

SimTime SsdDevice::ExecuteOnDevice(std::uint64_t cycles, SimTime ready) {
  return embedded_->Serve(
      ready, CyclesToTime(cycles, config_.embedded_cpu.clock_hz),
      "device task");
}

SimTime SsdDevice::TransferToHost(std::uint64_t bytes, SimTime ready) {
  if (bytes == 0) return ready;
  return host_link_->Serve(
      ready,
      TransferTime(bytes, EffectiveBytesPerSecond(
                              config_.host_interface.standard)),
      "result to host");
}

SimTime SsdDevice::HostCommand(SimTime ready) {
  return host_link_->Serve(ready, config_.host_interface.command_latency,
                           "command");
}

Status SsdDevice::AllocateDeviceDram(std::uint64_t bytes) {
  if (bytes > device_dram_free()) {
    return ResourceExhaustedError("device DRAM exhausted");
  }
  dram_used_ += bytes;
  return Status::OK();
}

void SsdDevice::ReleaseDeviceDram(std::uint64_t bytes) {
  SMARTSSD_CHECK_LE(bytes, dram_used_);
  dram_used_ -= bytes;
}

Status SsdDevice::AcquireSessionThread() {
  if (session_threads_free() <= 0) {
    return ResourceExhaustedError(
        "OPEN rejected: all session thread grants are held");
  }
  ++session_threads_used_;
  return Status::OK();
}

void SsdDevice::ReleaseSessionThread() {
  SMARTSSD_CHECK_GT(session_threads_used_, 0);
  --session_threads_used_;
}

void SsdDevice::AttachTracer(obs::Tracer* tracer,
                             std::string_view process) {
  array_->AttachTracer(tracer, process);
  ftl_->AttachTracer(tracer, process);
  dma_->AttachTracer(tracer, process, "dram bus");
  embedded_->AttachTracer(tracer, process, "embedded core");
  host_link_->AttachTracer(tracer, process, "host link");
  fault_injector_.AttachTracer(tracer, process);
}

void SsdDevice::AttachMetrics(obs::MetricsRegistry* metrics) {
  array_->AttachMetrics(metrics);
  ftl_->AttachMetrics(metrics);
}

void SsdDevice::ResetTiming() {
  array_->ResetTiming();
  dma_->Reset();
  host_link_->Reset();
  embedded_->Reset();
}

}  // namespace smartssd::ssd
