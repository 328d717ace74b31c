// Garbage-collection tests: greedy victim selection, data integrity
// under churn, wear-aware allocation bounds, free-block/over-provisioning
// accounting, GC observability (metrics), and fault recovery
// mid-relocation.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "flash/flash_array.h"
#include "ftl/ftl.h"
#include "obs/metrics.h"
#include "sim/fault_injector.h"

namespace smartssd::ftl {
namespace {

flash::Geometry TinyGeometry() {
  flash::Geometry g;
  g.channels = 2;
  g.chips_per_channel = 2;
  g.blocks_per_chip = 8;
  g.pages_per_block = 4;
  g.page_size_bytes = 256;
  return g;
}

std::vector<std::byte> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>((seed * 31 + i) & 0xFF);
  }
  return data;
}

// --- Victim selection (no device) ---------------------------------------

TEST(GcVictimSelection, GreedyPicksFewestValidPages) {
  const GcBlockView candidates[] = {
      {.block = 0, .valid_pages = 3, .erase_count = 0},
      {.block = 1, .valid_pages = 1, .erase_count = 9},
      {.block = 2, .valid_pages = 2, .erase_count = 0},
  };
  EXPECT_EQ(SelectGcVictim(candidates), 1u);
}

TEST(GcVictimSelection, GreedyTieBreaksByEraseThenBlock) {
  const GcBlockView by_erase[] = {
      {.block = 0, .valid_pages = 2, .erase_count = 5},
      {.block = 1, .valid_pages = 2, .erase_count = 3},
  };
  EXPECT_EQ(SelectGcVictim(by_erase), 1u);
  const GcBlockView by_block[] = {
      {.block = 4, .valid_pages = 2, .erase_count = 3},
      {.block = 1, .valid_pages = 2, .erase_count = 3},
  };
  EXPECT_EQ(SelectGcVictim(by_block), 1u);
}

TEST(GcVictimSelection, EmptyCandidateListYieldsNoVictim) {
  EXPECT_EQ(SelectGcVictim({}), kNoGcVictim);
}

// --- Full-device behavior ---------------------------------------------

// Hot/cold churn: GC relocates live pages, but every LPN must read back
// the last bytes written to it — GC must never be host-observable.
TEST(GcDevice, LastWriteWinsUnderChurn) {
  flash::FlashArray array(TinyGeometry(), flash::Timings{});
  Ftl ftl(&array, FtlConfig{});

  // Hot/cold mix at full capacity: every logical page written once, then
  // LPNs 0-7 churn constantly. Cold pages share blocks with hot ones, so
  // victims carry live data and GC actually relocates.
  const std::uint64_t cold = ftl.logical_pages();
  // The model: the last bytes written to each LPN.
  std::vector<std::vector<std::byte>> last_written(cold);
  for (std::uint64_t lpn = 0; lpn < cold; ++lpn) {
    const auto data = Pattern(256, static_cast<std::uint8_t>(lpn));
    ASSERT_TRUE(ftl.Write(lpn, data, 0).ok());
    last_written[lpn] = data;
  }
  smartssd::Random rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t lpn = rng.Uniform(8);
    const auto data = Pattern(256, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(ftl.Write(lpn, data, 0).ok());
    last_written[lpn] = data;
  }
  ASSERT_GT(ftl.stats().gc_runs, 0u);
  ASSERT_GT(ftl.stats().gc_relocations, 0u);

  std::vector<std::byte> out(256);
  for (std::uint64_t lpn = 0; lpn < cold; ++lpn) {
    ASSERT_TRUE(ftl.Read(lpn, out, 0).ok());
    EXPECT_EQ(out, last_written[lpn]) << "lpn " << lpn;
  }
}

TEST(GcDevice, WearAwareAllocationBoundsEraseSpread) {
  flash::FlashArray array(TinyGeometry(), flash::Timings{});
  Ftl ftl(&array, FtlConfig{});
  // Heavy uniform churn over a working set that forces constant GC.
  smartssd::Random rng(13);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t lpn = rng.Uniform(24);
    ASSERT_TRUE(
        ftl.Write(lpn, Pattern(256, static_cast<std::uint8_t>(i)), 0).ok());
  }
  ASSERT_GT(ftl.max_erase_count(), 0u);
  // The least-erased-free-block allocator keeps the spread within a
  // small constant band even after thousands of erases.
  EXPECT_LE(ftl.max_erase_count() - ftl.min_erase_count(), 8u)
      << "max " << ftl.max_erase_count() << " min "
      << ftl.min_erase_count();
}

TEST(GcDevice, FreeBlockAccountingAndGauges) {
  flash::FlashArray array(TinyGeometry(), flash::Timings{});
  Ftl ftl(&array, FtlConfig{});
  obs::MetricsRegistry metrics;
  ftl.AttachMetrics(&metrics);

  // All 32 blocks start free; the gauge mirrors the internal count.
  EXPECT_EQ(ftl.free_blocks(), 32u);
  EXPECT_EQ(metrics.gauge("ftl.free_blocks")->value(), 32);
  EXPECT_EQ(metrics.gauge("ftl.write_amplification")->value(), 1000);

  // Fill to logical capacity and churn: GC must keep every chip's free
  // list above zero (the low watermark refills it) and the metrics must
  // track the stats the FTL reports.
  const std::uint64_t n = ftl.logical_pages();
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t lpn = 0; lpn < n; ++lpn) {
      ASSERT_TRUE(
          ftl.Write(lpn, Pattern(256, static_cast<std::uint8_t>(lpn + round)),
                    0)
              .ok());
    }
  }
  EXPECT_GT(ftl.stats().gc_runs, 0u);
  EXPECT_GT(ftl.free_blocks(), 0u);
  EXPECT_EQ(metrics.gauge("ftl.free_blocks")->value(),
            static_cast<std::int64_t>(ftl.free_blocks()));
  EXPECT_EQ(metrics.counter("ftl.gc_runs")->value(), ftl.stats().gc_runs);
  EXPECT_EQ(metrics.counter("ftl.gc_relocations")->value(),
            ftl.stats().gc_relocations);
  EXPECT_EQ(metrics.histogram("ftl.gc_pause_ns")->count(),
            ftl.stats().gc_runs);
  EXPECT_EQ(metrics.gauge("ftl.write_amplification")->value(),
            static_cast<std::int64_t>(
                ftl.stats().write_amplification() * 1000.0));
  EXPECT_GE(metrics.gauge("ftl.write_amplification")->value(), 1000);
}

// An uncorrectable read during GC relocation must surface as a Status on
// the host write that triggered the collection — and the GcScope guard
// must leave the FTL able to collect (and write) again afterwards.
TEST(GcDevice, FaultDuringRelocationSurfacesAndRecovers) {
  flash::FlashArray array(TinyGeometry(), flash::Timings{});
  Ftl ftl(&array, FtlConfig{});

  // Fill to capacity so cold data shares blocks with hot churn: GC
  // victims then hold live pages, so collections issue relocation
  // reads. Arm a fault on the next flash page read before each write —
  // the only reads the FTL issues are relocation reads, so the fault
  // fires inside MaybeCollect.
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        ftl.Write(lpn, Pattern(256, static_cast<std::uint8_t>(lpn)), 0)
            .ok());
  }
  sim::FaultInjector injector;
  array.set_fault_injector(&injector);
  smartssd::Random rng(3);
  bool faulted = false;
  for (int i = 0; i < 2000 && !faulted; ++i) {
    sim::FaultSchedule schedule;
    schedule.faults.push_back(sim::FaultSpec{
        .kind = sim::FaultKind::kUncorrectableRead,
        .trigger = {.unit = sim::TriggerUnit::kPagesRead, .at = 0},
        .count = 1});
    injector.Load(schedule);
    const std::uint64_t lpn = rng.Uniform(8);
    const auto result =
        ftl.Write(lpn, Pattern(256, static_cast<std::uint8_t>(i)), 0);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
          << result.status().ToString();
      faulted = true;
    }
  }
  ASSERT_TRUE(faulted) << "churn never reached a GC relocation read";

  // Disarm and keep writing: the in-GC guard was released, collection
  // resumes, and every page still round-trips.
  injector.Clear();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(ftl.Write(rng.Uniform(16),
                          Pattern(256, static_cast<std::uint8_t>(i)), 0)
                    .ok())
        << "write " << i << " after fault recovery";
  }
  const auto final_data = Pattern(256, 42);
  ASSERT_TRUE(ftl.Write(5, final_data, 0).ok());
  std::vector<std::byte> out(256);
  ASSERT_TRUE(ftl.Read(5, out, 0).ok());
  EXPECT_EQ(std::memcmp(out.data(), final_data.data(), 256), 0);
}

}  // namespace
}  // namespace smartssd::ftl
