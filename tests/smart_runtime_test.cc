#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "smart/program.h"
#include "smart/result_queue.h"
#include "smart/runtime.h"
#include "smart/session_task.h"
#include "ssd/ssd_device.h"

namespace smartssd::smart {
namespace {

ssd::SsdConfig TestConfig() {
  ssd::SsdConfig config = ssd::SsdConfig::PaperSmartSsd();
  config.geometry.blocks_per_chip = 32;
  return config;
}

// A deliberately simple program: sums the first byte of every input
// page, emits one byte per page, and a 8-byte total at Finish. Exercises
// the whole OPEN/GET/CLOSE machinery without the query stack.
class ByteSumProgram final : public InSsdProgram {
 public:
  ByteSumProgram(std::uint64_t first_lpn, std::uint64_t pages,
                 std::uint64_t cycles_per_page, std::uint64_t dram_bytes = 0)
      : first_lpn_(first_lpn),
        pages_(pages),
        cycles_per_page_(cycles_per_page),
        dram_bytes_(dram_bytes) {}

  std::string_view name() const override { return "byte_sum"; }

  Result<SimTime> Open(DeviceServices& device, SimTime ready) override {
    open_calls_++;
    if (extra_dram_ > 0) {
      SMARTSSD_RETURN_IF_ERROR(device.AllocateDram(extra_dram_));
    }
    return ready;
  }

  std::vector<LpnRange> InputExtents() const override {
    return {{first_lpn_, pages_}};
  }

  Result<ProgramCharge> ProcessPage(std::span<const std::byte> page,
                                    ResultSink& sink) override {
    const std::uint8_t b =
        page.empty() ? 0 : static_cast<std::uint8_t>(page[0]);
    total_ += b;
    const std::byte out{b};
    sink.Emit({&out, 1});
    return ProgramCharge{.cycles = cycles_per_page_};
  }

  Result<ProgramCharge> Finish(ResultSink& sink) override {
    const std::byte* p = reinterpret_cast<const std::byte*>(&total_);
    sink.Emit({p, sizeof(total_)});
    return ProgramCharge{.cycles = 10};
  }

  std::uint64_t DramBytesRequired() const override { return dram_bytes_; }

  std::uint64_t total() const { return total_; }
  int open_calls() const { return open_calls_; }
  void set_extra_dram(std::uint64_t bytes) { extra_dram_ = bytes; }

 private:
  std::uint64_t first_lpn_;
  std::uint64_t pages_;
  std::uint64_t cycles_per_page_;
  std::uint64_t dram_bytes_;
  std::uint64_t extra_dram_ = 0;
  std::uint64_t total_ = 0;
  int open_calls_ = 0;
};

class SmartRuntimeTest : public ::testing::Test {
 protected:
  SmartRuntimeTest() : device_(TestConfig()), runtime_(&device_) {}

  void Preload(std::uint64_t pages, std::uint8_t tag) {
    std::vector<std::byte> page(device_.page_size(), std::byte{tag});
    SimTime t = 0;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
      page[0] = static_cast<std::byte>(tag + lpn);
      auto done = device_.WritePages(
          lpn, 1, std::span<const std::byte>(page), t);
      ASSERT_TRUE(done.ok());
      t = done.value();
    }
    device_.ResetTiming();
  }

  ssd::SsdDevice device_;
  SmartSsdRuntime runtime_;
};

TEST_F(SmartRuntimeTest, SessionDeliversAllResults) {
  constexpr std::uint64_t kPages = 100;
  Preload(kPages, 3);
  ByteSumProgram program(0, kPages, 500);
  std::vector<std::byte> output;
  auto stats = runtime_.RunSession(program, 0, &output);
  ASSERT_TRUE(stats.ok());

  // One byte per page + the 8-byte total.
  ASSERT_EQ(output.size(), kPages + 8);
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < kPages; ++i) {
    const std::uint8_t b = static_cast<std::uint8_t>(3 + i);
    EXPECT_EQ(output[i], std::byte{b});
    expected += b;
  }
  std::uint64_t delivered_total;
  std::memcpy(&delivered_total, output.data() + kPages, 8);
  EXPECT_EQ(delivered_total, expected);
  EXPECT_EQ(program.total(), expected);
}

TEST_F(SmartRuntimeTest, TimelineIsOrdered) {
  constexpr std::uint64_t kPages = 64;
  Preload(kPages, 1);
  ByteSumProgram program(0, kPages, 1000);
  auto stats = runtime_.RunSession(program, 1000, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->open_issued, 1000u);
  EXPECT_LE(stats->open_issued, stats->open_done);
  EXPECT_LE(stats->open_done, stats->processing_done);
  EXPECT_LE(stats->processing_done, stats->last_transfer_done);
  EXPECT_LE(stats->last_transfer_done, stats->close_done);
  EXPECT_EQ(stats->pages_processed, kPages);
  EXPECT_EQ(stats->result_bytes, kPages + 8);
  EXPECT_GE(stats->gets_issued, 1u);
  EXPECT_EQ(stats->embedded_cycles, kPages * 1000 + 10);
}

TEST_F(SmartRuntimeTest, CpuBoundSessionScalesWithCycles) {
  constexpr std::uint64_t kPages = 256;
  Preload(kPages, 0);
  ByteSumProgram cheap(0, kPages, 100);
  ByteSumProgram expensive(0, kPages, 1'000'000);
  auto cheap_stats =
      runtime_.RunSession(cheap, 0, nullptr);
  device_.ResetTiming();
  auto expensive_stats =
      runtime_.RunSession(expensive, 0, nullptr);
  ASSERT_TRUE(cheap_stats.ok());
  ASSERT_TRUE(expensive_stats.ok());
  // 256 pages x 1M cycles / (3 cores x 400 MHz) ~ 213 ms.
  EXPECT_GT(expensive_stats->elapsed(), 10 * cheap_stats->elapsed());
  EXPECT_NEAR(ToSeconds(expensive_stats->elapsed()), 0.213, 0.03);
}

TEST_F(SmartRuntimeTest, IoBoundSessionTracksInternalBandwidth) {
  constexpr std::uint64_t kPages = 2048;
  Preload(kPages, 0);
  ByteSumProgram program(0, kPages, 1);  // negligible CPU
  auto stats = runtime_.RunSession(program, 0, nullptr);
  ASSERT_TRUE(stats.ok());
  const double seconds = ToSeconds(stats->elapsed());
  const double bytes = static_cast<double>(kPages) * device_.page_size();
  // Should run near the 1,560 MB/s internal rate, not the 550 MB/s link.
  EXPECT_NEAR(bytes / seconds / 1e6, 1560.0, 120.0);
}

TEST_F(SmartRuntimeTest, DramGrantEnforced) {
  Preload(4, 0);
  ByteSumProgram program(0, 4, 10,
                         /*dram_bytes=*/device_.device_dram_free() + 1);
  auto stats = runtime_.RunSession(program, 0, nullptr);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SmartRuntimeTest, DramReleasedAtClose) {
  Preload(4, 0);
  const std::uint64_t free_before = device_.device_dram_free();
  ByteSumProgram program(0, 4, 10, /*dram_bytes=*/1024 * 1024);
  auto stats = runtime_.RunSession(program, 0, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(device_.device_dram_free(), free_before);
}

TEST_F(SmartRuntimeTest, SessionIdsIncrease) {
  Preload(2, 0);
  ByteSumProgram a(0, 2, 10);
  ByteSumProgram b(0, 2, 10);
  auto s1 = runtime_.RunSession(a, 0, nullptr);
  auto s2 = runtime_.RunSession(b, s1->close_done, nullptr);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_LT(s1->session_id, s2->session_id);
}

// A session task destroyed mid-flight hands its thread and DRAM grants
// back and counts as abandoned, not failed.
TEST_F(SmartRuntimeTest, DestroyedSessionTaskReturnsItsGrants) {
  constexpr std::uint64_t kPages = 16;
  Preload(kPages, 0);
  const int threads_free = device_.session_threads_free();
  const std::uint64_t dram_free = device_.device_dram_free();
  ByteSumProgram program(0, kPages, 10, /*dram_bytes=*/1024 * 1024);
  std::vector<std::byte> output;
  {
    std::unique_ptr<SessionTask> task =
        runtime_.StartSession(program, 0, &output);
    ASSERT_TRUE(task->Step().ok());  // OPEN: thread and DRAM granted
    ASSERT_TRUE(task->Step().ok());  // the first input page
    ASSERT_FALSE(task->finished());
    EXPECT_EQ(device_.session_threads_free(), threads_free - 1);
    EXPECT_LT(device_.device_dram_free(), dram_free);
    EXPECT_EQ(runtime_.active_sessions(), 1);
  }
  EXPECT_EQ(device_.session_threads_free(), threads_free);
  EXPECT_EQ(device_.device_dram_free(), dram_free);
  EXPECT_EQ(runtime_.active_sessions(), 0);
  EXPECT_EQ(runtime_.sessions_abandoned(), 1u);
  EXPECT_EQ(runtime_.sessions_failed(), 0u);
  EXPECT_FALSE(runtime_.session_leak_detected());
}

// --- ResultQueue unit tests ---

TEST(ResultQueueTest, ChunksAtChunkSize) {
  ResultQueue queue(8);
  std::vector<std::byte> data(20, std::byte{1});
  queue.Append(data, 100);
  // 20 bytes -> two sealed 8-byte chunks + 4 open bytes.
  EXPECT_EQ(queue.pending_chunks(), 2u);
  queue.Flush(150);
  EXPECT_EQ(queue.pending_chunks(), 3u);
  ResultChunk chunk;
  ASSERT_TRUE(queue.PopReady(200, &chunk));
  EXPECT_EQ(chunk.data.size(), 8u);
  EXPECT_EQ(chunk.ready_time, 100u);
  ASSERT_TRUE(queue.PopReady(200, &chunk));
  ASSERT_TRUE(queue.PopReady(200, &chunk));
  EXPECT_EQ(chunk.data.size(), 4u);
  EXPECT_EQ(chunk.ready_time, 150u);
  EXPECT_FALSE(queue.PopReady(200, &chunk));
}

TEST(ResultQueueTest, ReadinessGatesPop) {
  ResultQueue queue(4);
  std::vector<std::byte> data(4, std::byte{2});
  queue.Append(data, 500);
  ResultChunk chunk;
  EXPECT_FALSE(queue.PopReady(499, &chunk));
  EXPECT_TRUE(queue.PopReady(500, &chunk));
}

TEST(ResultQueueTest, TotalBytesTracked) {
  ResultQueue queue(16);
  std::vector<std::byte> data(10, std::byte{3});
  queue.Append(data, 1);
  queue.Append(data, 2);
  EXPECT_EQ(queue.total_bytes(), 20u);
}

}  // namespace
}  // namespace smartssd::smart
