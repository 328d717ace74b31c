#include "exec/hybrid_join.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "exec/page_processor.h"

namespace smartssd::exec {

namespace {

// Pages per spill-extent allocation. Small enough that lightly-used
// partitions waste little flash, large enough to keep the allocator off
// the per-page path.
constexpr std::uint64_t kSpillChunkPages = 4;

// Level salts for the partitioning rehash. Each recursion level must
// split keys that collided at the previous level, so every level mixes
// with a different odd constant before taking the high bits.
constexpr std::uint64_t kLevelSalts[] = {
    0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL,
    0xD6E8FEB86659FD93ULL, 0x8CB92BA72F3D8DD7ULL, 0x27D4EB2F165667C5ULL,
    0x85EBCA77C2B2AE63ULL, 0x2545F4914F6CDD1DULL,
};
constexpr std::uint32_t kNumLevelSalts =
    sizeof(kLevelSalts) / sizeof(kLevelSalts[0]);

constexpr int kFanoutShift = std::countr_zero(HybridJoin::kFanout);

std::uint64_t Load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store64(std::byte* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

HybridJoin::HybridJoin(const BoundQuery* bound,
                       smart::DeviceServices* device,
                       const HybridJoinConfig& config)
    : bound_(bound),
      device_(device),
      config_(config),
      page_size_(device->page_size()) {
  SMARTSSD_CHECK(bound_->spec->join.has_value());
  SMARTSSD_CHECK_GT(config_.budget_bytes, 0u);
  build_rec_width_ = 8 + bound_->payload_width;
  outer_row_width_ = bound_->outer->schema.tuple_size();
  probe_rec_width_ = 8 + outer_row_width_;
  SMARTSSD_CHECK_LE(build_rec_width_, page_size_);
  SMARTSSD_CHECK_LE(probe_rec_width_, page_size_);
  partitions_.resize(kFanout);
  record_.resize(std::max(build_rec_width_, probe_rec_width_));
}

std::uint32_t HybridJoin::PartitionOf(std::int64_t key,
                                      std::uint32_t level) const {
  std::uint64_t h =
      JoinHashTable::HashKey(key) ^ kLevelSalts[level % kNumLevelSalts];
  h *= 0x2545F4914F6CDD1DULL;
  h ^= h >> 29;
  // High bits: SlotFor() masks the low bits, so partition choice and
  // in-table placement stay independent.
  return static_cast<std::uint32_t>(h >> (64 - kFanoutShift));
}

void HybridJoin::NotePeak(std::uint64_t extra) {
  std::uint64_t current = extra + match_arena_.capacity() +
                          matches_.capacity() * sizeof(Match);
  if (resident_table_.has_value()) {
    current += resident_table_->memory_bytes();
  }
  for (const Partition& p : partitions_) {
    current += p.rows.capacity() + p.build_file.buffer.capacity() +
               p.probe_file.buffer.capacity();
  }
  current += hot_.size() * (sizeof(std::int64_t) + bound_->payload_width +
                            32);  // node overhead estimate
  dram_peak_ = std::max(dram_peak_, current);
}

// --- spill files -----------------------------------------------------

Status HybridJoin::FlushPage(PageFile* file) {
  if (file->buffer.empty()) return Status::OK();
  if (file->pages_used == file->lpns.size()) {
    SMARTSSD_ASSIGN_OR_RETURN(
        const std::uint64_t first,
        device_->AllocateSpillExtent(kSpillChunkPages));
    for (std::uint64_t i = 0; i < kSpillChunkPages; ++i) {
      file->lpns.push_back(first + i);
    }
  }
  file->buffer.resize(page_size_, std::byte{0});
  SMARTSSD_ASSIGN_OR_RETURN(
      const SimTime done,
      device_->WriteSpillPage(file->lpns[file->pages_used], file->buffer));
  (void)done;  // spill I/O lands on the session's timeline, not ours
  ++file->pages_used;
  ++stats_.spill_pages_written;
  overhead_cycles_ += page_size_ / 16;  // page formatting + DMA setup
  file->buffer.clear();
  return Status::OK();
}

Status HybridJoin::AppendRecord(PageFile* file,
                                std::span<const std::byte> record) {
  if (file->buffer.size() + record.size() > page_size_) {
    SMARTSSD_RETURN_IF_ERROR(FlushPage(file));
  }
  if (file->buffer.capacity() == 0) file->buffer.reserve(page_size_);
  file->buffer.insert(file->buffer.end(), record.begin(), record.end());
  ++file->records;
  overhead_cycles_ += record.size() / 8 + 2;
  return Status::OK();
}

Status HybridJoin::ForEachRecord(
    const PageFile& file, std::uint32_t width,
    const std::function<Status(const std::byte*)>& fn) {
  SMARTSSD_CHECK(file.buffer.empty());  // sealed
  const std::uint64_t per_page = page_size_ / width;
  std::uint64_t remaining = file.records;
  for (std::uint64_t p = 0; p < file.pages_used && remaining > 0; ++p) {
    SMARTSSD_ASSIGN_OR_RETURN(const SimTime at,
                              device_->ReadSpillPage(file.lpns[p]));
    (void)at;
    const std::span<const std::byte> view = device_->ViewPage(file.lpns[p]);
    if (view.size() < page_size_) {
      return CorruptionError("spill page vanished from the FTL");
    }
    // Copy before iterating: spill writes issued from inside `fn` (child
    // partitions, GC relocations) may move the viewed flash page.
    read_buf_.assign(view.begin(), view.begin() + page_size_);
    const std::uint64_t n = std::min<std::uint64_t>(per_page, remaining);
    for (std::uint64_t i = 0; i < n; ++i) {
      SMARTSSD_RETURN_IF_ERROR(fn(read_buf_.data() + i * width));
    }
    remaining -= n;
    ++stats_.spill_pages_read;
    overhead_cycles_ += page_size_ / 16 + n * (width / 8 + 2);
  }
  return Status::OK();
}

// --- build phase -----------------------------------------------------

Status HybridJoin::EvictLargestResident() {
  // Largest resident partition frees the most budget per spilled page;
  // ties break toward the lowest id for determinism.
  Partition* victim = nullptr;
  for (Partition& p : partitions_) {
    if (!p.resident || p.build_rows == 0) continue;
    if (victim == nullptr || p.build_rows > victim->build_rows) {
      victim = &p;
    }
  }
  if (victim == nullptr) return Status::OK();  // nothing left to evict
  const std::uint64_t n = victim->build_rows;
  for (std::uint64_t i = 0; i < n; ++i) {
    SMARTSSD_RETURN_IF_ERROR(AppendRecord(
        &victim->build_file,
        std::span<const std::byte>(
            victim->rows.data() + i * build_rec_width_, build_rec_width_)));
  }
  victim->rows.clear();
  victim->rows.shrink_to_fit();
  victim->resident = false;
  resident_rows_total_ -= n;
  stats_.build_rows_spilled += n;
  ++stats_.partitions_spilled;
  return Status::OK();
}

Status HybridJoin::AddBuildRow(std::int64_t key,
                               std::span<const std::byte> payload) {
  // The payload is copied with std::copy, not memcpy: a join without
  // payload columns passes an empty span whose data() may be null.
  Partition& p = partitions_[PartitionOf(key, 0)];
  ++p.build_rows;
  if (!p.resident) {
    Store64(record_.data(), static_cast<std::uint64_t>(key));
    std::copy(payload.begin(), payload.end(), record_.begin() + 8);
    ++stats_.build_rows_spilled;
    return AppendRecord(&p.build_file,
                        std::span(record_).first(build_rec_width_));
  }
  const std::size_t off = p.rows.size();
  p.rows.resize(off + build_rec_width_);
  Store64(p.rows.data() + off, static_cast<std::uint64_t>(key));
  std::copy(payload.begin(), payload.end(),
            p.rows.begin() + static_cast<std::ptrdiff_t>(off + 8));
  ++resident_rows_total_;
  // Keep the projected resident hash table inside the budget: evict
  // whole partitions, largest first, until it fits (or nothing is left).
  while (JoinHashTable::EstimateBytes(resident_rows_total_,
                                      bound_->payload_width) >
             config_.budget_bytes &&
         resident_rows_total_ > 0) {
    SMARTSSD_RETURN_IF_ERROR(EvictLargestResident());
  }
  NotePeak(0);
  return Status::OK();
}

Status HybridJoin::AddBuildPage(std::span<const std::byte> page) {
  SMARTSSD_CHECK(!build_finished_);
  std::vector<std::byte> payload(bound_->payload_width);
  return WalkBuildPage(
      *bound_, page, payload, &build_counts_,
      [this](std::int64_t key, std::span<const std::byte> row_payload) {
        return AddBuildRow(key, row_payload);
      });
}

Status HybridJoin::FinishBuild() {
  SMARTSSD_CHECK(!build_finished_);
  build_finished_ = true;
  resident_table_.emplace(bound_->payload_width, resident_rows_total_);
  for (Partition& p : partitions_) {
    if (!p.resident) {
      SMARTSSD_RETURN_IF_ERROR(SealFile(&p.build_file));
      continue;
    }
    for (std::uint64_t i = 0; i < p.build_rows; ++i) {
      const std::byte* rec = p.rows.data() + i * build_rec_width_;
      ++build_counts_.hash_inserts;
      SMARTSSD_RETURN_IF_ERROR(resident_table_->Insert(
          static_cast<std::int64_t>(Load64(rec)),
          std::span<const std::byte>(rec + 8, bound_->payload_width)));
    }
    // The table copied the payloads; the staging rows are done.
    p.rows.clear();
    p.rows.shrink_to_fit();
  }
  NotePeak(0);
  return Status::OK();
}

// --- probe phase -----------------------------------------------------

std::uint64_t HybridJoin::SketchBump(std::int64_t key) {
  for (std::uint32_t i = 0; i < sketch_size_; ++i) {
    if (sketch_[i].key == key) return ++sketch_[i].count;
  }
  if (sketch_size_ < kHotKeyCapacity) {
    sketch_[sketch_size_++] = SketchEntry{key, 1};
    return 1;
  }
  // Space-saving: at capacity, the newcomer replaces the smallest
  // tracked count (ties go to the smallest key) and inherits it plus
  // one, so a genuine heavy hitter climbs fast even if it arrived late.
  SketchEntry* min = &sketch_[0];
  for (SketchEntry& e : sketch_) {
    if (e.count < min->count || (e.count == min->count && e.key < min->key)) {
      min = &e;
    }
  }
  *min = SketchEntry{key, min->count + 1};
  return min->count;
}

const std::byte* HybridJoin::HotPayload(
    const std::optional<std::vector<std::byte>>& entry) const {
  if (!entry.has_value()) return nullptr;  // confirmed absent
  if (entry->empty()) {
    static constexpr std::byte kEmptyPayload{};
    return &kEmptyPayload;
  }
  return entry->data();
}

Status HybridJoin::Promote(std::int64_t key, Partition& partition) {
  // Fetch the heavy hitter's build row from the partition's sealed
  // build file — real (charged) spill reads, no OpCounts.
  std::optional<std::vector<std::byte>> found;
  SMARTSSD_RETURN_IF_ERROR(ForEachRecord(
      partition.build_file, build_rec_width_,
      [&](const std::byte* rec) -> Status {
        if (!found.has_value() &&
            static_cast<std::int64_t>(Load64(rec)) == key) {
          found.emplace(rec + 8, rec + build_rec_width_);
        }
        return Status::OK();
      }));
  hot_.emplace(key, std::move(found));
  ++stats_.hot_keys_pinned;
  NotePeak(0);
  return Status::OK();
}

Result<HybridJoin::ProbeResult> HybridJoin::Probe(
    std::int64_t key, const expr::RowView& outer, OpCounts* counts) {
  SMARTSSD_CHECK(build_finished_);
  ProbeResult result;
  result.seq = next_seq_++;
  Partition& p = partitions_[PartitionOf(key, 0)];
  if (p.resident) {
    ++counts->probes;
    result.payload = resident_table_->Probe(key);
    return result;
  }
  const auto hot = hot_.find(key);
  if (hot != hot_.end()) {
    ++counts->probes;
    ++stats_.hot_hits;
    result.payload = HotPayload(hot->second);
    return result;
  }
  if (SketchBump(key) >= kHotKeyThreshold &&
      hot_.size() < kHotKeyCapacity) {
    SMARTSSD_RETURN_IF_ERROR(Promote(key, p));
    ++counts->probes;
    ++stats_.hot_hits;
    result.payload = HotPayload(hot_.find(key)->second);
    return result;
  }
  // Defer: materialize the outer row (NSM layout) into the partition's
  // probe file, tagged with its scan position.
  Store64(record_.data(), result.seq);
  outer.CopyRecord(record_.data() + 8);
  SMARTSSD_RETURN_IF_ERROR(AppendRecord(
      &p.probe_file, std::span(record_).first(probe_rec_width_)));
  ++stats_.probe_rows_spilled;
  result.deferred = true;
  return result;
}

void HybridJoin::BufferMatch(std::uint64_t seq, const expr::RowView& outer,
                             const std::byte* payload) {
  const std::uint64_t offset = match_arena_.size();
  match_arena_.resize(offset + outer_row_width_);
  outer.CopyRecord(match_arena_.data() + offset);
  if (bound_->payload_width > 0) {
    match_arena_.insert(match_arena_.end(), payload,
                        payload + bound_->payload_width);
  }
  matches_.push_back(Match{seq, offset});
  overhead_cycles_ += (outer_row_width_ + bound_->payload_width) / 8 + 2;
  NotePeak(0);
}

// --- resolve ---------------------------------------------------------

Status HybridJoin::ResolveFiles(PageFile build, PageFile probe,
                                std::uint32_t level, OpCounts* counts,
                                const Deliver& deliver) {
  stats_.passes = std::max(stats_.passes, level + 1);
  // A probe record is its seq, then the outer row as an NSM record.
  const storage::Schema& outer_schema = bound_->outer->schema;
  const int key_col = bound_->spec->join->outer_key_col;
  if (JoinHashTable::EstimateBytes(build.records, bound_->payload_width) <=
      config_.budget_bytes) {
    JoinHashTable table(bound_->payload_width, build.records);
    SMARTSSD_RETURN_IF_ERROR(ForEachRecord(
        build, build_rec_width_, [&](const std::byte* rec) {
          ++counts->hash_inserts;
          return table.Insert(
              static_cast<std::int64_t>(Load64(rec)),
              std::span<const std::byte>(rec + 8, bound_->payload_width));
        }));
    NotePeak(table.memory_bytes());
    return ForEachRecord(
        probe, probe_rec_width_, [&](const std::byte* rec) -> Status {
          const expr::NsmRowView outer(&outer_schema, rec + 8);
          ++counts->probes;
          const std::byte* payload =
              table.Probe(outer.GetColumn(key_col).AsInt());
          if (payload == nullptr) return Status::OK();
          return deliver(Load64(rec), outer, payload);
        });
  }
  if (level >= kMaxDepth) {
    return ResourceExhaustedError(
        "hybrid join: partition still exceeds the memory budget at the "
        "maximum recursion depth");
  }
  // Split both files into kFanout children with the next level's salt and
  // recurse. Records move wholesale: no OpCounts are recharged.
  std::vector<PageFile> child_build(kFanout);
  std::vector<PageFile> child_probe(kFanout);
  SMARTSSD_RETURN_IF_ERROR(ForEachRecord(
      build, build_rec_width_, [&](const std::byte* rec) {
        const std::int64_t key = static_cast<std::int64_t>(Load64(rec));
        return AppendRecord(&child_build[PartitionOf(key, level)],
                            std::span<const std::byte>(rec,
                                                       build_rec_width_));
      }));
  for (PageFile& f : child_build) SMARTSSD_RETURN_IF_ERROR(SealFile(&f));
  SMARTSSD_RETURN_IF_ERROR(ForEachRecord(
      probe, probe_rec_width_, [&](const std::byte* rec) {
        const std::int64_t key = expr::NsmRowView(&outer_schema, rec + 8)
                                     .GetColumn(key_col)
                                     .AsInt();
        return AppendRecord(&child_probe[PartitionOf(key, level)],
                            std::span<const std::byte>(rec,
                                                       probe_rec_width_));
      }));
  for (PageFile& f : child_probe) SMARTSSD_RETURN_IF_ERROR(SealFile(&f));
  for (std::uint32_t c = 0; c < kFanout; ++c) {
    SMARTSSD_RETURN_IF_ERROR(ResolveFiles(std::move(child_build[c]),
                                          std::move(child_probe[c]),
                                          level + 1, counts, deliver));
  }
  return Status::OK();
}

Status HybridJoin::Resolve(OpCounts* counts, const Deliver& deliver) {
  SMARTSSD_CHECK(build_finished_);
  if (!any_spilled()) return Status::OK();
  // Scan-side probing is over: retiring the resident table frees the
  // budget's biggest tenant before the per-partition tables are built.
  resident_table_.reset();
  for (Partition& p : partitions_) {
    if (p.resident) continue;
    SMARTSSD_RETURN_IF_ERROR(SealFile(&p.probe_file));
    SMARTSSD_RETURN_IF_ERROR(ResolveFiles(std::move(p.build_file),
                                          std::move(p.probe_file),
                                          /*level=*/1, counts, deliver));
    p.build_file = PageFile{};
    p.probe_file = PageFile{};
  }
  return Status::OK();
}

Status HybridJoin::ReplayOrdered(const Replay& replay) {
  std::sort(matches_.begin(), matches_.end(),
            [](const Match& a, const Match& b) { return a.seq < b.seq; });
  overhead_cycles_ += matches_.size() * 4;
  static constexpr std::byte kEmptyPayload{};
  for (const Match& m : matches_) {
    const std::byte* row = match_arena_.data() + m.offset;
    const expr::NsmRowView outer(&bound_->outer->schema, row);
    const std::byte* payload = bound_->payload_width > 0
                                   ? row + outer_row_width_
                                   : &kEmptyPayload;
    SMARTSSD_RETURN_IF_ERROR(replay(outer, payload));
  }
  matches_.clear();
  match_arena_.clear();
  return Status::OK();
}

}  // namespace smartssd::exec
