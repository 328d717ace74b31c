#include "ftl/ftl.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/logging.h"

namespace smartssd::ftl {

namespace {
constexpr std::uint32_t kNoBlock = ~0U;

std::uint64_t LogicalPageCount(const flash::FlashArray* array,
                               const FtlConfig& config) {
  SMARTSSD_CHECK(array != nullptr);
  SMARTSSD_CHECK(config.over_provisioning >= 0.0 &&
                 config.over_provisioning < 1.0);
  return static_cast<std::uint64_t>(
      static_cast<double>(array->geometry().total_pages()) *
      (1.0 - config.over_provisioning));
}

// Clears the in-GC flag on every exit path of MaybeCollect, so a fault
// surfaced mid-relocation leaves the FTL able to collect again instead
// of wedged with GC permanently disabled.
class GcScope {
 public:
  explicit GcScope(bool* flag) : flag_(flag) { *flag_ = true; }
  ~GcScope() { *flag_ = false; }
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(GcScope);

 private:
  bool* flag_;
};
}  // namespace

std::uint32_t SelectGcVictim(std::span<const GcBlockView> candidates) {
  const GcBlockView* best = nullptr;
  for (const GcBlockView& c : candidates) {
    if (best == nullptr ||
        std::tie(c.valid_pages, c.erase_count, c.block) <
            std::tie(best->valid_pages, best->erase_count, best->block)) {
      best = &c;
    }
  }
  return best == nullptr ? kNoGcVictim : best->block;
}

Ftl::Ftl(flash::FlashArray* array, const FtlConfig& config)
    : array_(array),
      config_(config),
      logical_pages_(LogicalPageCount(array, config)),
      l2p_(logical_pages_, kMapChunkEntries, kUnmapped),
      p2l_(array->geometry().total_pages(), kMapChunkEntries, kUnmapped) {
  const flash::Geometry& g = array_->geometry();
  valid_.assign(g.total_pages(), false);
  valid_per_block_.assign(g.total_blocks(), 0);

  cursors_.resize(g.total_chips());
  for (std::uint64_t chip = 0; chip < g.total_chips(); ++chip) {
    for (std::uint32_t b = 0; b < g.blocks_per_chip; ++b) {
      cursors_[chip].free_blocks.push_back(b);
    }
  }
}

bool Ftl::IsMapped(std::uint64_t lpn) const {
  return lpn < logical_pages_ && l2p_.Get(lpn) != kUnmapped;
}

std::span<const std::byte> Ftl::View(std::uint64_t lpn) const {
  if (!IsMapped(lpn)) return {};
  return array_->store().View(l2p_.Get(lpn));
}

Status Ftl::Invalidate(std::uint64_t ppn) {
  if (!valid_[ppn]) return Status::OK();
  valid_[ppn] = false;
  p2l_.Mutable(ppn) = kUnmapped;
  const std::uint64_t block = ppn / array_->geometry().pages_per_block;
  if (valid_per_block_[block] == 0) {
    return CorruptionError(
        "ftl: valid-page accounting underflow (map corruption)");
  }
  --valid_per_block_[block];
  return Status::OK();
}

void Ftl::AttachTracer(obs::Tracer* tracer, std::string_view process) {
  tracer_ = tracer;
  if (tracer_ != nullptr) track_ = tracer_->RegisterTrack(process, "ftl gc");
}

void Ftl::AttachMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_gc_runs_ = nullptr;
    m_gc_relocations_ = nullptr;
    m_gc_pause_ = nullptr;
    m_free_blocks_ = nullptr;
    m_write_amp_ = nullptr;
    return;
  }
  m_gc_runs_ = metrics->counter("ftl.gc_runs");
  m_gc_relocations_ = metrics->counter("ftl.gc_relocations");
  m_gc_pause_ = metrics->histogram("ftl.gc_pause_ns");
  m_free_blocks_ = metrics->gauge("ftl.free_blocks");
  // Gauges are integral, so write amplification is kept in thousandths
  // (1000 = writes cost exactly what the host asked for).
  m_write_amp_ = metrics->gauge("ftl.write_amplification");
  UpdateGauges();
}

void Ftl::UpdateGauges() {
  if (m_free_blocks_ != nullptr) {
    m_free_blocks_->Set(static_cast<std::int64_t>(free_blocks()));
  }
  if (m_write_amp_ != nullptr) {
    m_write_amp_->Set(static_cast<std::int64_t>(
        stats_.write_amplification() * 1000.0));
  }
}

Result<SimTime> Ftl::MaybeCollect(int channel, int chip, SimTime ready) {
  const flash::Geometry& g = array_->geometry();
  const std::uint64_t chip_index =
      static_cast<std::uint64_t>(channel) * g.chips_per_channel + chip;
  ChipCursor& cursor = cursors_[chip_index];
  if (in_gc_ ||
      cursor.free_blocks.size() > config_.gc_low_watermark_blocks) {
    return ready;
  }
  GcScope gc_scope(&in_gc_);
  ++stats_.gc_runs;
  obs::BumpCounter(m_gc_runs_);
  const std::uint64_t relocations_before = stats_.gc_relocations;
  SimTime now = ready;

  // Candidates: every non-active, non-free block on this chip.
  const std::uint64_t first_block =
      chip_index * static_cast<std::uint64_t>(g.blocks_per_chip);
  std::vector<GcBlockView> candidates;
  candidates.reserve(g.blocks_per_chip);
  for (std::uint32_t b = 0; b < g.blocks_per_chip; ++b) {
    if (b == cursor.active_block) continue;
    const bool free_listed =
        std::find(cursor.free_blocks.begin(), cursor.free_blocks.end(),
                  b) != cursor.free_blocks.end();
    if (free_listed) continue;
    const std::uint64_t block_index = first_block + b;
    candidates.push_back(GcBlockView{
        .block = b,
        .valid_pages = valid_per_block_[block_index],
        .erase_count = array_->block_state(block_index).erase_count});
  }
  const std::uint32_t victim = SelectGcVictim(candidates);
  if (victim == kNoGcVictim) {
    return ResourceExhaustedError("ftl: no GC victim available");
  }
  const std::uint32_t victim_valid = valid_per_block_[first_block + victim];

  // Relocate the victim's valid pages through the normal write path (the
  // in_gc_ flag suppresses nested collection).
  const std::uint64_t victim_first_page =
      (first_block + victim) * static_cast<std::uint64_t>(g.pages_per_block);
  std::vector<std::byte> buffer(g.page_size_bytes);
  for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
    const std::uint64_t ppn = victim_first_page + p;
    if (!valid_[ppn]) continue;
    const std::uint64_t lpn = p2l_.Get(ppn);
    if (lpn == kUnmapped) {
      return CorruptionError(
          "ftl: p2l map missing an entry for a valid page");
    }
    const flash::PageAddress src = flash::AddressFromPageIndex(g, ppn);
    SMARTSSD_ASSIGN_OR_RETURN(SimTime read_done,
                              array_->ReadPage(src, now, buffer));
    SimTime gc_delay = read_done;
    SMARTSSD_ASSIGN_OR_RETURN(const std::uint64_t dst_ppn,
                              AllocatePage(read_done, &gc_delay));
    const flash::PageAddress dst = flash::AddressFromPageIndex(g, dst_ppn);
    SMARTSSD_ASSIGN_OR_RETURN(now,
                              array_->ProgramPage(dst, buffer, gc_delay));
    SMARTSSD_RETURN_IF_ERROR(Invalidate(ppn));
    l2p_.Mutable(lpn) = dst_ppn;
    p2l_.Mutable(dst_ppn) = lpn;
    valid_[dst_ppn] = true;
    ++valid_per_block_[dst_ppn / g.pages_per_block];
    ++stats_.gc_relocations;
  }

  const flash::PageAddress victim_addr =
      flash::AddressFromPageIndex(g, victim_first_page);
  SMARTSSD_ASSIGN_OR_RETURN(
      now, array_->EraseBlock(victim_addr.channel, victim_addr.chip, victim,
                              now));
  ++stats_.block_erases;
  cursor.free_blocks.push_back(victim);
  const std::uint64_t relocated =
      stats_.gc_relocations - relocations_before;
  obs::BumpCounter(m_gc_relocations_, relocated);
  obs::RecordHistogram(m_gc_pause_, now - ready);
  UpdateGauges();
  if (tracer_ != nullptr) {
    tracer_->Complete(
        track_, "gc run", "ftl", ready, now,
        {obs::Arg::Uint("relocated_pages", relocated),
         obs::Arg::Uint("victim_valid", victim_valid),
         obs::Arg::Uint("victim_erases",
                        array_->block_state(first_block + victim)
                            .erase_count),
         obs::Arg::Str("policy", "greedy")});
  }
  return now;
}

Result<std::uint64_t> Ftl::AllocatePage(SimTime ready, SimTime* gc_done) {
  const flash::Geometry& g = array_->geometry();
  const std::uint64_t chip_count = g.total_chips();
  // Round-robin over chips: consecutive logical writes land on
  // consecutive channels, which is what lets a later sequential read
  // stream from all channels at once.
  for (std::uint64_t attempt = 0; attempt < chip_count; ++attempt) {
    const std::uint64_t chip_index = stripe_cursor_ % chip_count;
    stripe_cursor_++;
    ChipCursor& cursor = cursors_[chip_index];
    const int channel = static_cast<int>(chip_index / g.chips_per_channel);
    const int chip = static_cast<int>(chip_index % g.chips_per_channel);

    if (!in_gc_) {
      SMARTSSD_ASSIGN_OR_RETURN(*gc_done,
                                MaybeCollect(channel, chip, *gc_done));
    }
    if (cursor.active_block == ChipCursor::kNoBlock ||
        array_->block_state(chip_index * g.blocks_per_chip +
                            cursor.active_block)
                .write_pointer >= g.pages_per_block) {
      if (cursor.free_blocks.empty()) continue;  // try another chip
      // Wear-aware selection: open the least-erased free block (ties to
      // the lowest block index), so erase counts stay within a bounded
      // spread instead of the FIFO free list recycling hot blocks.
      std::size_t best = 0;
      for (std::size_t i = 1; i < cursor.free_blocks.size(); ++i) {
        const std::uint32_t cand = cursor.free_blocks[i];
        const std::uint32_t held = cursor.free_blocks[best];
        const std::uint32_t cand_erases =
            array_->block_state(chip_index * g.blocks_per_chip + cand)
                .erase_count;
        const std::uint32_t held_erases =
            array_->block_state(chip_index * g.blocks_per_chip + held)
                .erase_count;
        if (cand_erases < held_erases ||
            (cand_erases == held_erases && cand < held)) {
          best = i;
        }
      }
      cursor.active_block = cursor.free_blocks[best];
      cursor.free_blocks.erase(cursor.free_blocks.begin() +
                               static_cast<std::ptrdiff_t>(best));
    }
    const std::uint64_t block_index =
        chip_index * g.blocks_per_chip + cursor.active_block;
    const std::uint32_t page = array_->block_state(block_index).write_pointer;
    return block_index * static_cast<std::uint64_t>(g.pages_per_block) +
           page;
  }
  (void)ready;
  return ResourceExhaustedError("ftl: flash array is full");
}

Result<SimTime> Ftl::Write(std::uint64_t lpn,
                           std::span<const std::byte> data, SimTime ready) {
  if (lpn >= logical_pages_) {
    return OutOfRangeError("ftl write: lpn beyond logical capacity");
  }
  if (data.size() > page_size()) {
    return InvalidArgumentError("ftl write: data larger than a page");
  }
  ready += config_.command_overhead;
  SimTime gc_done = ready;
  SMARTSSD_ASSIGN_OR_RETURN(const std::uint64_t ppn,
                            AllocatePage(ready, &gc_done));
  const flash::PageAddress addr =
      flash::AddressFromPageIndex(array_->geometry(), ppn);
  SMARTSSD_ASSIGN_OR_RETURN(const SimTime done,
                            array_->ProgramPage(addr, data, gc_done));
  const std::uint64_t old_ppn = l2p_.Get(lpn);
  if (old_ppn != kUnmapped) {
    SMARTSSD_RETURN_IF_ERROR(Invalidate(old_ppn));
  }
  l2p_.Mutable(lpn) = ppn;
  p2l_.Mutable(ppn) = lpn;
  valid_[ppn] = true;
  ++valid_per_block_[ppn / array_->geometry().pages_per_block];
  ++stats_.host_writes;
  UpdateGauges();
  return done;
}

Result<SimTime> Ftl::ReadTiming(std::uint64_t lpn, SimTime ready) {
  if (lpn >= logical_pages_) {
    return OutOfRangeError("ftl read: lpn beyond logical capacity");
  }
  ready += config_.command_overhead;
  ++stats_.host_reads;
  const std::uint64_t ppn = l2p_.Get(lpn);
  if (ppn == kUnmapped) {
    // Served straight from the mapping table; no flash operation.
    ++stats_.unmapped_reads;
    return ready;
  }
  const flash::PageAddress addr =
      flash::AddressFromPageIndex(array_->geometry(), ppn);
  return array_->ReadPageTiming(addr, ready);
}

Result<SimTime> Ftl::Read(std::uint64_t lpn, std::span<std::byte> out,
                          SimTime ready) {
  SMARTSSD_ASSIGN_OR_RETURN(const SimTime done, ReadTiming(lpn, ready));
  if (!out.empty()) {
    const std::uint64_t ppn = l2p_.Get(lpn);
    if (ppn == kUnmapped) {
      std::fill(out.begin(),
                out.begin() + std::min<std::size_t>(out.size(), page_size()),
                std::byte{0});
    } else {
      SMARTSSD_RETURN_IF_ERROR(array_->store().Read(ppn, out));
    }
  }
  return done;
}

Status Ftl::Trim(std::uint64_t lpn) {
  if (lpn >= logical_pages_) {
    return OutOfRangeError("ftl trim: lpn beyond logical capacity");
  }
  const std::uint64_t ppn = l2p_.Get(lpn);
  if (ppn != kUnmapped) {
    SMARTSSD_RETURN_IF_ERROR(Invalidate(ppn));
    l2p_.Mutable(lpn) = kUnmapped;
  }
  return Status::OK();
}

std::uint32_t Ftl::max_erase_count() const {
  const flash::Geometry& g = array_->geometry();
  std::uint32_t max_count = 0;
  for (std::uint64_t b = 0; b < g.total_blocks(); ++b) {
    max_count = std::max(max_count, array_->block_state(b).erase_count);
  }
  return max_count;
}

std::uint32_t Ftl::min_erase_count() const {
  const flash::Geometry& g = array_->geometry();
  std::uint32_t min_count = ~0U;
  for (std::uint64_t b = 0; b < g.total_blocks(); ++b) {
    min_count = std::min(min_count, array_->block_state(b).erase_count);
  }
  return min_count;
}

std::uint64_t Ftl::free_blocks() const {
  std::uint64_t total = 0;
  for (const ChipCursor& cursor : cursors_) {
    total += cursor.free_blocks.size();
  }
  return total;
}

}  // namespace smartssd::ftl
