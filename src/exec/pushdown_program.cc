#include "exec/pushdown_program.h"

#include <algorithm>

namespace smartssd::exec {

PushdownProgram::PushdownProgram(const BoundQuery* bound,
                                 const storage::ZoneMap* zone_map,
                                 KernelMode kernel,
                                 const HybridJoinConfig& spill,
                                 std::uint32_t spill_page_size_hint,
                                 std::uint64_t first_page,
                                 std::uint64_t page_count)
    : bound_(bound),
      outer_params_(EmbeddedCostParams(bound->outer->layout)),
      zone_map_(zone_map),
      kernel_(kernel),
      spill_(spill),
      spill_page_size_hint_(spill_page_size_hint) {
  const std::uint64_t table_pages = bound->outer->page_count;
  scan_begin_ = std::min(first_page, table_pages);
  scan_end_ = page_count >= table_pages - scan_begin_
                  ? table_pages
                  : scan_begin_ + page_count;
  partial_ = first_page > 0 || page_count < table_pages;
  prune_ranges_ = PruneRanges(bound->spec->predicate.get(),
                              bound->outer_columns(), zone_map_);
  for (std::uint64_t p = scan_begin_; p < scan_end_; ++p) {
    if (prune_ranges_.empty() || PageMayMatch(*zone_map_, p, prune_ranges_)) {
      input_pages_.push_back(p);
    }
  }
}

std::string_view PushdownProgram::name() const {
  return bound_->spec->name;
}

bool PushdownProgram::hybrid_join_engaged() const {
  return bound_->spec->join.has_value() && spill_.budget_bytes > 0 &&
         JoinHashTable::EstimateBytes(bound_->inner->tuple_count,
                                      bound_->payload_width) >
             spill_.budget_bytes;
}

std::uint64_t PushdownProgram::OutputRowWidth() const {
  const QuerySpec& spec = *bound_->spec;
  std::uint64_t width = 0;
  if (spec.aggregates.empty()) {
    for (const int col : spec.projection) {
      width += bound_->combined_schema.column(col).width;
    }
  } else {
    for (const int col : spec.group_by) {
      width += bound_->combined_schema.column(col).width;
    }
    width += 8ull * spec.aggregates.size();
  }
  return width;
}

std::uint64_t PushdownProgram::DramBytesRequired() const {
  const QuerySpec& spec = *bound_->spec;
  // Streaming buffers for the internal data path.
  std::uint64_t bytes = 2ull * 1024 * 1024;
  // Output staging. The per-page scratch and ordered-replay arena grow
  // geometrically, so capacity can reach twice the live content — the
  // old flat 2 MiB silently absorbed this, which defeated the grant
  // audit for wide outputs.
  const std::uint64_t out_width = OutputRowWidth();
  if (spec.top_n.has_value()) {
    bytes += (spec.top_n->limit + 1ull) * (out_width + 24);
  } else if (!spec.group_by.empty()) {
    bytes += std::min<std::uint64_t>(bound_->outer->tuple_count, 4096) *
             (out_width + 16);
  } else {
    bytes += 2ull * bound_->outer->tuples_per_page * out_width;
  }
  if (spec.join.has_value()) {
    if (hybrid_join_engaged()) {
      // Hybrid mode: the resident build side is capped by the budget;
      // on top of it the join keeps one page buffer per partition file
      // (build + probe), one spill-read staging page, and the pinned
      // heavy hitters.
      bytes += spill_.budget_bytes;
      bytes += (2ull * HybridJoin::kFanout + 1) * spill_page_size_hint_;
      bytes += HybridJoin::kHotKeyCapacity *
               (bound_->payload_width + 48ull);
      if (spec.aggregates.empty()) {
        // Order-sensitive output stages every match (seq + outer row +
        // payload) for scan-order replay; 2x for geometric growth.
        bytes += 2ull * bound_->outer->tuple_count *
                 (16 + bound_->outer->schema.tuple_size() +
                  bound_->payload_width);
      }
    } else {
      // The slot array at the table's real load factor plus the payload
      // pool (EstimateBytes mirrors the constructor exactly).
      bytes += JoinHashTable::EstimateBytes(bound_->inner->tuple_count,
                                            bound_->payload_width);
    }
  }
  if (zone_map_ != nullptr) bytes += zone_map_->memory_bytes();
  return bytes;
}

void PushdownProgram::NotePeak() {
  std::uint64_t current = scratch_.capacity();
  if (hash_table_.has_value()) current += hash_table_->memory_bytes();
  if (hybrid_ != nullptr) current += hybrid_->dram_peak_bytes();
  if (zone_map_ != nullptr) current += zone_map_->memory_bytes();
  dram_peak_ = std::max(dram_peak_, current);
}

Result<SimTime> PushdownProgram::Open(smart::DeviceServices& device,
                                      SimTime ready) {
  SimTime done = ready;
  if (bound_->spec->join.has_value()) {
    // Build phase: stream the inner table through the internal path and
    // hash it in device DRAM — all of it (simple hash join) or as much
    // as the budget admits (hybrid), the rest spilling to flash.
    const storage::TableInfo& inner = *bound_->inner;
    SimTime io_done = ready;
    for (std::uint64_t p = 0; p < inner.page_count; ++p) {
      SMARTSSD_ASSIGN_OR_RETURN(
          io_done, device.ReadInternal(inner.first_lpn + p, ready));
    }
    OpCounts build_counts;
    if (hybrid_join_engaged()) {
      hybrid_ = std::make_unique<HybridJoin>(bound_, &device, spill_);
      for (std::uint64_t p = 0; p < inner.page_count; ++p) {
        std::span<const std::byte> view =
            device.ViewPage(inner.first_lpn + p);
        if (view.empty()) {
          return CorruptionError("inner table page is unmapped");
        }
        SMARTSSD_RETURN_IF_ERROR(hybrid_->AddBuildPage(view));
      }
      SMARTSSD_RETURN_IF_ERROR(hybrid_->FinishBuild());
      build_counts = hybrid_->build_counts();
    } else {
      auto read_page = [&](std::uint64_t page_index)
          -> Result<std::span<const std::byte>> {
        std::span<const std::byte> view =
            device.ViewPage(inner.first_lpn + page_index);
        if (view.empty()) {
          return CorruptionError("inner table page is unmapped");
        }
        return view;
      };
      SMARTSSD_ASSIGN_OR_RETURN(
          JoinHashTable table,
          BuildJoinHashTable(*bound_, read_page, &build_counts));
      hash_table_.emplace(std::move(table));
    }
    counts_ += build_counts;
    // The build is single-threaded firmware code on one embedded core;
    // partitioning/eviction bookkeeping rides on the same core.
    const std::uint64_t cycles =
        Cycles(build_counts, EmbeddedCostParams(inner.layout),
               inner.schema.num_columns(), 0) +
        SpillOverheadCycles();
    done = device.Execute(cycles, io_done);
  }
  if (!prune_ranges_.empty()) {
    // Extent filtering against the zone map: a couple of cycles per
    // page entry on one embedded core. Fragments only check their own
    // range, so per-fragment charges sum to the monolithic charge.
    done = device.Execute((scan_end_ - scan_begin_) * 2, done);
  }
  processor_ = std::make_unique<PageProcessor>(
      bound_, hash_table_.has_value() ? &*hash_table_ : nullptr, kernel_,
      hybrid_.get());
  processor_->SetZoneMap(zone_map_);
  next_input_page_ = 0;
  NotePeak();
  return done;
}

std::vector<smart::LpnRange> PushdownProgram::InputExtents() const {
  // The surviving pages as coalesced runs.
  const std::uint64_t first_lpn = bound_->outer->first_lpn;
  std::vector<smart::LpnRange> extents;
  for (const std::uint64_t p : input_pages_) {
    if (!extents.empty() &&
        extents.back().first_lpn + extents.back().count == first_lpn + p) {
      ++extents.back().count;
    } else {
      extents.push_back({first_lpn + p, 1});
    }
  }
  return extents;
}

Result<smart::ProgramCharge> PushdownProgram::ProcessPage(
    std::span<const std::byte> page, smart::ResultSink& sink) {
  SMARTSSD_CHECK(processor_ != nullptr);  // Open() must run first
  const std::uint64_t page_index =
      next_input_page_ < input_pages_.size()
          ? input_pages_[next_input_page_++]
          : PageProcessor::kNoPage;
  OpCounts page_counts;
  scratch_.clear();
  SMARTSSD_RETURN_IF_ERROR(
      processor_->ProcessPage(page, page_index, &page_counts, &scratch_));
  if (!scratch_.empty()) sink.Emit(scratch_);
  counts_ += page_counts;
  NotePeak();
  return smart::ProgramCharge{
      .cycles = Cycles(page_counts, outer_params_,
                       bound_->outer->schema.num_columns(),
                       HashEntries()) +
                SpillOverheadCycles()};
}

Result<smart::ProgramCharge> PushdownProgram::Finish(
    smart::ResultSink& sink) {
  SMARTSSD_CHECK(processor_ != nullptr);
  OpCounts final_counts;
  scratch_.clear();
  SMARTSSD_RETURN_IF_ERROR(processor_->Finish(&final_counts, &scratch_));
  if (!scratch_.empty()) sink.Emit(scratch_);
  if (!partial_) counts_ += final_counts;
  NotePeak();
  return smart::ProgramCharge{
      .cycles = Cycles(final_counts, outer_params_,
                       bound_->outer->schema.num_columns(),
                       HashEntries()) +
                SpillOverheadCycles()};
}

}  // namespace smartssd::exec
