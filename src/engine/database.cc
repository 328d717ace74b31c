#include "engine/database.h"

#include <algorithm>

namespace smartssd::engine {

DatabaseOptions DatabaseOptions::PaperHdd() {
  DatabaseOptions options;
  options.device = DeviceKind::kHdd;
  return options;
}

DatabaseOptions DatabaseOptions::PaperSsd() {
  DatabaseOptions options;
  options.device = DeviceKind::kSsd;
  options.ssd = ssd::SsdConfig::PaperSsd();
  return options;
}

DatabaseOptions DatabaseOptions::PaperSmartSsd() {
  DatabaseOptions options;
  options.device = DeviceKind::kSmartSsd;
  options.ssd = ssd::SsdConfig::PaperSmartSsd();
  return options;
}

Database::Database(const DatabaseOptions& options)
    : options_(options), breaker_(options.breaker) {
  switch (options.device) {
    case DeviceKind::kHdd: {
      device_ = std::make_unique<ssd::HddDevice>(options.hdd);
      break;
    }
    case DeviceKind::kSsd:
    case DeviceKind::kSmartSsd: {
      auto ssd = std::make_unique<ssd::SsdDevice>(options.ssd);
      ssd_ = ssd.get();
      device_ = std::move(ssd);
      if (options.device == DeviceKind::kSmartSsd) {
        runtime_ = std::make_unique<smart::SmartSsdRuntime>(ssd_);
      }
      break;
    }
  }
  catalog_ = std::make_unique<storage::Catalog>(device_->num_pages());
  pool_ = std::make_unique<BufferPool>(device_.get(),
                                       options.buffer_pool_pages);
  host_ = std::make_unique<HostMachine>(options.host);
  // Instruments are always on (lock-free bumps, no virtual-time reads);
  // tracing stays opt-in via AttachTracer.
  if (ssd_ != nullptr) ssd_->AttachMetrics(&metrics_);
  pool_->AttachMetrics(&metrics_);
}

void Database::AttachTracer(obs::Tracer* tracer,
                            std::string_view device_process,
                            std::string_view host_process) {
  tracer_ = tracer;
  if (ssd_ != nullptr) ssd_->AttachTracer(tracer, device_process);
  host_->AttachTracer(tracer, host_process);
  breaker_.AttachTracer(tracer, host_process);
  if (runtime_ != nullptr) runtime_->AttachTracer(tracer, host_process);
  if (tracer != nullptr) {
    executor_track_ = tracer->RegisterTrack(host_process, "executor");
  }
  trace_device_process_ = std::string(device_process);
  trace_host_process_ = std::string(host_process);
}

SimTime Database::trace_latest_time() const {
  SMARTSSD_CHECK(tracer_ != nullptr);
  return std::max(tracer_->latest_time(trace_device_process_),
                  tracer_->latest_time(trace_host_process_));
}

StageBreakdown Database::StageSnapshot() const {
  StageBreakdown s;
  if (ssd_ != nullptr) {
    s.flash_chip = ssd_->flash_array().total_chip_busy();
    s.flash_channel = ssd_->flash_array().total_channel_busy();
    s.dram_bus = ssd_->dma_busy();
    s.host_link = ssd_->host_link_busy();
    s.embedded_cpu = ssd_->embedded_cpu_busy();
  }
  s.host_cpu = host_->cpu_busy();
  return s;
}

Result<storage::TableInfo> Database::LoadTable(
    std::string name, const storage::Schema& schema,
    storage::PageLayout layout, std::uint64_t row_count,
    const storage::RowGenerator& gen, std::uint64_t reserve_extra_pages) {
  storage::TableLoader loader(device_.get(), catalog_.get());
  return loader.Load(std::move(name), schema, layout, row_count, gen,
                     reserve_extra_pages);
}

Status Database::BuildZoneMap(const std::string& table) {
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                            catalog_->GetTable(table));
  std::vector<std::byte> buffer(device_->page_size());
  auto read_page = [&](std::uint64_t page_index)
      -> Result<std::span<const std::byte>> {
    SMARTSSD_RETURN_IF_ERROR(
        device_
            ->ReadPages(info->first_lpn + page_index, 1, buffer,
                        /*ready=*/0)
            .status());
    return std::span<const std::byte>(buffer);
  };
  SMARTSSD_ASSIGN_OR_RETURN(storage::ZoneMap map,
                            storage::ZoneMap::Build(*info, read_page));
  zone_maps_.insert_or_assign(
      table, std::make_shared<storage::ZoneMap>(std::move(map)));
  return Status::OK();
}

const storage::ZoneMap* Database::zone_map(const std::string& table) const {
  auto it = zone_maps_.find(table);
  return it == zone_maps_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const storage::ZoneMap> Database::zone_map_snapshot(
    const std::string& table) const {
  auto it = zone_maps_.find(table);
  return it == zone_maps_.end() ? nullptr : it->second;
}

std::vector<std::string> Database::zone_mapped_tables() const {
  std::vector<std::string> tables;
  for (const auto& [table, map] : zone_maps_) tables.push_back(table);
  return tables;
}

Status Database::RefoldZoneMap(const std::string& table,
                               std::uint64_t page_index,
                               std::span<const std::byte> page,
                               std::vector<const std::byte*>* records) {
  auto it = zone_maps_.find(table);
  if (it == zone_maps_.end()) return Status::OK();
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                            catalog_->GetTable(table));
  // A session holds the current map as its snapshot: refold a copy.
  if (it->second.use_count() > 1) {
    it->second = std::make_shared<storage::ZoneMap>(*it->second);
  }
  return it->second->RefoldPage(*info, page_index, page, records);
}

void Database::ResetForColdRun() {
  pool_->Clear();
  host_->ResetTiming();
  if (ssd_ != nullptr) {
    ssd_->ResetTiming();
  } else {
    static_cast<ssd::HddDevice*>(device_.get())->ResetTiming();
  }
}

std::uint64_t Database::EstimatedHostReadBytesPerSecond() const {
  if (options_.device == DeviceKind::kHdd) {
    // Media rate derated by per-request overhead at 32-page commands.
    const double request_bytes =
        32.0 * options_.hdd.page_size_bytes;
    const double transfer_s =
        request_bytes / static_cast<double>(
                            options_.hdd.media_bytes_per_second);
    const double total_s =
        transfer_s + ToSeconds(options_.hdd.per_request_overhead);
    return static_cast<std::uint64_t>(request_bytes / total_s);
  }
  return ssd::EffectiveBytesPerSecond(options_.ssd.host_interface.standard);
}

std::uint64_t Database::EstimatedInternalReadBytesPerSecond() const {
  if (ssd_ == nullptr) return 0;
  const auto& dram = options_.ssd.dram;
  const std::uint64_t dram_rate =
      static_cast<std::uint64_t>(dram.bus_count) * dram.bus_bytes_per_second;
  const std::uint64_t channel_rate =
      static_cast<std::uint64_t>(options_.ssd.geometry.channels) *
      options_.ssd.timings.channel_bytes_per_second;
  return std::min(dram_rate, channel_rate);
}

}  // namespace smartssd::engine
