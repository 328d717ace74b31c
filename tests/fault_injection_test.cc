// Fault injection end-to-end: injected device failures surface as the
// right Status at the right layer, sessions always tear down cleanly,
// the engine degrades to the host scan path with byte-identical
// results, and the circuit breaker routes around a device that keeps
// failing.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "engine/circuit_breaker.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "sim/fault_injector.h"
#include "smart/program.h"
#include "smart/protocol.h"
#include "smart/runtime.h"
#include "ssd/ssd_device.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace smartssd {
namespace {

using sim::FaultInjector;
using sim::FaultKind;
using sim::FaultSchedule;
using sim::FaultSpec;
using sim::RandomFault;
using sim::TriggerUnit;

FaultSchedule OneFault(FaultKind kind, TriggerUnit unit, std::uint64_t at,
                       std::uint32_t count = 1) {
  FaultSchedule schedule;
  schedule.faults.push_back(FaultSpec{kind, {unit, at}, count});
  return schedule;
}

FaultSchedule RandomSchedule(FaultKind kind, double per_page,
                             std::uint64_t seed) {
  FaultSchedule schedule;
  schedule.random.push_back(RandomFault{kind, per_page});
  schedule.seed = seed;
  return schedule;
}

// --- FaultInjector unit tests -----------------------------------------

TEST(FaultInjectorTest, UnarmedNeverFiresNorCounts) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
  EXPECT_FALSE(injector.OnBytes(FaultKind::kTransferError, 4096, 0));
  EXPECT_FALSE(injector.OnEvent(FaultKind::kDeviceReset, 0));
  EXPECT_EQ(injector.pages_read(), 0u);
  EXPECT_EQ(injector.bytes_transferred(), 0u);
  EXPECT_EQ(injector.total_fired(), 0u);
}

TEST(FaultInjectorTest, PageTriggerFiresAtThreshold) {
  FaultInjector injector;
  injector.Load(
      OneFault(FaultKind::kUncorrectableRead, TriggerUnit::kPagesRead, 3));
  EXPECT_FALSE(injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
  EXPECT_FALSE(injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
  EXPECT_TRUE(injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
  // count defaults to 1: the fault is spent.
  EXPECT_FALSE(injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
  EXPECT_EQ(injector.fired(FaultKind::kUncorrectableRead), 1u);
}

TEST(FaultInjectorTest, CountedFaultFiresRepeatedly) {
  FaultInjector injector;
  injector.Load(OneFault(FaultKind::kUncorrectableRead,
                         TriggerUnit::kPagesRead, 2, /*count=*/2));
  EXPECT_FALSE(injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
  EXPECT_TRUE(injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
  EXPECT_TRUE(injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
  EXPECT_FALSE(injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
  EXPECT_EQ(injector.fired(FaultKind::kUncorrectableRead), 2u);
}

TEST(FaultInjectorTest, ByteTriggerAccumulates) {
  FaultInjector injector;
  injector.Load(OneFault(FaultKind::kTransferError,
                         TriggerUnit::kBytesTransferred, 10'000));
  EXPECT_FALSE(injector.OnBytes(FaultKind::kTransferError, 4096, 0));
  EXPECT_FALSE(injector.OnBytes(FaultKind::kTransferError, 4096, 0));
  EXPECT_TRUE(injector.OnBytes(FaultKind::kTransferError, 4096, 0));
  EXPECT_EQ(injector.bytes_transferred(), 3u * 4096);
}

TEST(FaultInjectorTest, SimTimeTriggerComparesVirtualTime) {
  FaultInjector injector;
  injector.Load(
      OneFault(FaultKind::kDeviceReset, TriggerUnit::kSimTime, 1000));
  EXPECT_FALSE(injector.OnEvent(FaultKind::kDeviceReset, 999));
  EXPECT_TRUE(injector.OnEvent(FaultKind::kDeviceReset, 1000));
  EXPECT_FALSE(injector.OnEvent(FaultKind::kDeviceReset, 2000));
}

TEST(FaultInjectorTest, KindsDoNotCrossFire) {
  FaultInjector injector;
  injector.Load(OneFault(FaultKind::kGetStall, TriggerUnit::kSimTime, 0));
  EXPECT_FALSE(injector.OnEvent(FaultKind::kDeviceReset, 100));
  EXPECT_FALSE(injector.OnPageRead(FaultKind::kUncorrectableRead, 100));
  EXPECT_TRUE(injector.OnEvent(FaultKind::kGetStall, 100));
}

TEST(FaultInjectorTest, RandomFaultsReplayWithSameSeed) {
  FaultSchedule schedule =
      RandomSchedule(FaultKind::kUncorrectableRead, 0.3, /*seed=*/42);
  FaultInjector injector;
  auto draw = [&] {
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(
          injector.OnPageRead(FaultKind::kUncorrectableRead, 0));
    }
    return fires;
  };
  injector.Load(schedule);
  const std::vector<bool> first = draw();
  injector.Load(schedule);  // re-load resets RNG and counters
  EXPECT_EQ(first, draw());
  // A different seed produces a different pattern (with 2^-200 odds of
  // a flake, effectively never).
  schedule.seed = 43;
  injector.Load(schedule);
  EXPECT_NE(first, draw());
}

TEST(FaultInjectorTest, ClearDisarms) {
  FaultInjector injector;
  FaultSchedule schedule =
      OneFault(FaultKind::kOpenRejected, TriggerUnit::kSimTime, 0);
  schedule.random.push_back(
      RandomFault{FaultKind::kUncorrectableRead, 1.0});
  injector.Load(schedule);
  EXPECT_TRUE(injector.armed());
  injector.Clear();
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.OnEvent(FaultKind::kOpenRejected, 100));
  EXPECT_FALSE(injector.OnPageRead(FaultKind::kUncorrectableRead, 100));
}

// --- Device-level propagation -----------------------------------------

ssd::SsdConfig SmallConfig() {
  ssd::SsdConfig config = ssd::SsdConfig::PaperSmartSsd();
  config.geometry.blocks_per_chip = 32;
  return config;
}

class DeviceFaultTest : public ::testing::Test {
 protected:
  DeviceFaultTest() : device_(SmallConfig()) {}

  void Preload(std::uint64_t pages) {
    std::vector<std::byte> page(device_.page_size(), std::byte{7});
    SimTime t = 0;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
      page[0] = static_cast<std::byte>(lpn);
      auto done =
          device_.WritePages(lpn, 1, std::span<const std::byte>(page), t);
      ASSERT_TRUE(done.ok());
      t = done.value();
    }
    device_.ResetTiming();
  }

  ssd::SsdDevice device_;
};

TEST_F(DeviceFaultTest, UncorrectableReadSurfacesAsCorruption) {
  Preload(16);
  device_.fault_injector().Load(
      OneFault(FaultKind::kUncorrectableRead, TriggerUnit::kPagesRead, 5));
  const std::uint64_t retries_before = device_.flash_array().read_retries();
  auto status = device_.ReadPages(0, 16, {}, 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kCorruption);
  // The drive burned its full retry ladder before giving up.
  EXPECT_GT(device_.flash_array().read_retries(), retries_before);
  EXPECT_EQ(device_.flash_array().uncorrectable_reads(), 1u);
}

TEST_F(DeviceFaultTest, HostTransferErrorSurfacesAsIoError) {
  Preload(16);
  device_.fault_injector().Load(
      OneFault(FaultKind::kTransferError, TriggerUnit::kBytesTransferred,
               4 * device_.page_size()));
  auto status = device_.ReadPages(0, 16, {}, 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kIoError);
}

TEST_F(DeviceFaultTest, CleanScheduleReadsFine) {
  Preload(16);
  device_.fault_injector().Load({});  // empty schedule never fires
  EXPECT_TRUE(device_.ReadPages(0, 16, {}, 0).ok());
}

// --- Smart session protocol under faults ------------------------------

// Minimal program: sums the first byte of every input page, emits one
// byte per page and an 8-byte total at Finish.
class ByteSumProgram final : public smart::InSsdProgram {
 public:
  explicit ByteSumProgram(std::uint64_t pages, std::uint64_t dram_bytes = 0)
      : pages_(pages), dram_bytes_(dram_bytes) {}

  std::string_view name() const override { return "byte_sum"; }

  Result<SimTime> Open(smart::DeviceServices&, SimTime ready) override {
    return ready;
  }

  std::vector<smart::LpnRange> InputExtents() const override {
    return {{0, pages_}};
  }

  Result<smart::ProgramCharge> ProcessPage(
      std::span<const std::byte> page, smart::ResultSink& sink) override {
    const std::byte b = page.empty() ? std::byte{0} : page[0];
    total_ += static_cast<std::uint8_t>(b);
    sink.Emit({&b, 1});
    return smart::ProgramCharge{.cycles = 500};
  }

  Result<smart::ProgramCharge> Finish(smart::ResultSink& sink) override {
    const std::byte* p = reinterpret_cast<const std::byte*>(&total_);
    sink.Emit({p, sizeof(total_)});
    return smart::ProgramCharge{.cycles = 10};
  }

  std::uint64_t DramBytesRequired() const override { return dram_bytes_; }

 private:
  std::uint64_t pages_;
  std::uint64_t dram_bytes_;
  std::uint64_t total_ = 0;
};

class SessionFaultTest : public DeviceFaultTest {
 protected:
  SessionFaultTest() : runtime_(&device_) {}

  // Runs a 32-page session and returns its result, asserting no device
  // DRAM leaked whatever the outcome.
  Result<smart::SessionStats> RunOnce() {
    const std::uint64_t dram_before = device_.device_dram_free();
    ByteSumProgram program(32, /*dram_bytes=*/1 << 20);
    auto result = runtime_.RunSession(program, 0, &output_, &failed_at_);
    EXPECT_EQ(device_.device_dram_free(), dram_before)
        << "session leaked device DRAM";
    return result;
  }

  smart::SmartSsdRuntime runtime_;
  std::vector<std::byte> output_;
  SimTime failed_at_ = 0;
};

TEST_F(SessionFaultTest, OpenRejectedSurfacesResourceExhausted) {
  Preload(32);
  device_.fault_injector().Load(
      OneFault(FaultKind::kOpenRejected, TriggerUnit::kSimTime, 0));
  auto result = RunOnce();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(runtime_.sessions_failed(), 1u);
}

TEST_F(SessionFaultTest, DeviceResetAbortsWithRecoveryDelay) {
  Preload(32);
  device_.fault_injector().Load(
      OneFault(FaultKind::kDeviceReset, TriggerUnit::kPagesRead, 10));
  auto result = RunOnce();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  // The failure time includes the reset recovery window.
  EXPECT_GE(failed_at_, smart::kDeviceResetRecovery);
}

TEST_F(SessionFaultTest, UncorrectableReadPropagatesThroughSession) {
  Preload(32);
  device_.fault_injector().Load(
      OneFault(FaultKind::kUncorrectableRead, TriggerUnit::kPagesRead, 10));
  auto result = RunOnce();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(SessionFaultTest, ResultQueueOverflowSurfacesResourceExhausted) {
  Preload(32);
  device_.fault_injector().Load(OneFault(FaultKind::kResultQueueOverflow,
                                         TriggerUnit::kPagesRead, 10));
  auto result = RunOnce();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SessionFaultTest, TransferErrorDuringGetSurfacesIoError) {
  Preload(32);
  device_.fault_injector().Load(
      OneFault(FaultKind::kTransferError, TriggerUnit::kBytesTransferred,
               1));
  auto result = RunOnce();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(SessionFaultTest, GetStallWithinBudgetRecovers) {
  Preload(32);
  device_.fault_injector().Load(OneFault(
      FaultKind::kGetStall, TriggerUnit::kSimTime, 0, /*count=*/2));
  auto result = RunOnce();  // the retry budget is 3
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->get_retries, 2u);
  // Output intact despite the stalls: one byte/page + 8-byte total.
  EXPECT_EQ(output_.size(), 32u + 8u);
  // Each timeout pushed the session end out.
  EXPECT_GE(result->close_done, 2 * smart::kGetTimeout);
}

TEST_F(SessionFaultTest, GetStallBudgetExhaustedFails) {
  Preload(32);
  device_.fault_injector().Load(OneFault(
      FaultKind::kGetStall, TriggerUnit::kSimTime, 0, /*count=*/100));
  auto result = RunOnce();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_EQ(runtime_.sessions_failed(), 1u);
}

TEST_F(SessionFaultTest, SessionCountersTrackOutcomes) {
  Preload(32);
  EXPECT_TRUE(RunOnce().ok());
  device_.fault_injector().Load(
      OneFault(FaultKind::kOpenRejected, TriggerUnit::kSimTime, 0));
  EXPECT_FALSE(RunOnce().ok());
  EXPECT_EQ(runtime_.sessions_run(), 2u);
  EXPECT_EQ(runtime_.sessions_failed(), 1u);
}

// --- Circuit breaker unit tests ---------------------------------------

TEST(CircuitBreakerTest, OpensAtThresholdAndProbesAfterCooldown) {
  engine::CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown = 1000;
  engine::DeviceCircuitBreaker breaker(config);
  breaker.RecordFailure(0);
  EXPECT_FALSE(breaker.ShouldBypass(0));
  breaker.RecordFailure(100);
  EXPECT_TRUE(breaker.open());
  EXPECT_TRUE(breaker.ShouldBypass(100));
  EXPECT_TRUE(breaker.ShouldBypass(1099));
  // Cooldown elapsed: the next query may probe the device.
  EXPECT_FALSE(breaker.ShouldBypass(1100));
  EXPECT_EQ(breaker.state(), engine::DeviceCircuitBreaker::State::kHalfOpen);
  // The probe failing re-opens immediately for another cooldown (the
  // breaker never closed, so this is still the same trip).
  breaker.RecordFailure(1100);
  EXPECT_TRUE(breaker.ShouldBypass(1101));
  // The next probe succeeding closes it for good.
  EXPECT_FALSE(breaker.ShouldBypass(2100));
  breaker.RecordSuccess(2150);
  EXPECT_FALSE(breaker.open());
  EXPECT_FALSE(breaker.ShouldBypass(99'999));
  EXPECT_EQ(breaker.total_failures(), 3u);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe) {
  engine::CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = 1000;
  engine::DeviceCircuitBreaker breaker(config);
  breaker.RecordFailure(0);
  EXPECT_TRUE(breaker.open());

  // Cooldown elapsed: the first caller is admitted as the probe...
  EXPECT_FALSE(breaker.ShouldBypass(1000));
  EXPECT_TRUE(breaker.probe_in_flight());
  // ...and every co-running query keeps bypassing while it is in
  // flight, instead of piling onto a possibly-dead device.
  EXPECT_TRUE(breaker.ShouldBypass(1001));
  EXPECT_TRUE(breaker.ShouldBypass(1500));

  // The probe succeeding closes the breaker for everyone.
  breaker.RecordSuccess(1600);
  EXPECT_EQ(breaker.state(), engine::DeviceCircuitBreaker::State::kClosed);
  EXPECT_FALSE(breaker.ShouldBypass(1601));
}

TEST(CircuitBreakerTest, SilentProbeIsReplacedAfterACooldown) {
  engine::CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = 1000;
  engine::DeviceCircuitBreaker breaker(config);
  breaker.RecordFailure(0);
  EXPECT_FALSE(breaker.ShouldBypass(1000));  // probe admitted
  EXPECT_TRUE(breaker.ShouldBypass(1999));   // still in flight: bypass
  // The probe never reported an outcome (e.g. its query died of a
  // non-device error); after a full further cooldown the breaker stops
  // waiting for it and admits a replacement.
  EXPECT_FALSE(breaker.ShouldBypass(2000));
  EXPECT_TRUE(breaker.probe_in_flight());
  breaker.RecordFailure(2100);
  EXPECT_EQ(breaker.state(), engine::DeviceCircuitBreaker::State::kOpen);
  // A failed probe does not count as a fresh trip.
  EXPECT_EQ(breaker.trips(), 1u);
}

// --- Engine-level degraded execution ----------------------------------

constexpr double kSf = 0.002;  // 12k LINEITEM rows

class DegradedExecutionTest : public ::testing::Test {
 protected:
  DegradedExecutionTest() : db_(engine::DatabaseOptions::PaperSmartSsd()) {
    SMARTSSD_CHECK(tpch::LoadLineitem(db_, "lineitem", kSf,
                                      storage::PageLayout::kPax)
                       .ok());
    db_.ResetForColdRun();
  }

  Result<engine::QueryResult> RunSmart(const exec::QuerySpec& spec) {
    db_.ResetForColdRun();
    engine::QueryExecutor executor(&db_);
    return executor.Execute(spec, engine::ExecutionTarget::kSmartSsd);
  }

  engine::Database db_;
};

TEST_F(DegradedExecutionTest, ResetMidQ6FallsBackByteIdentical) {
  const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
  auto clean = RunSmart(spec);
  ASSERT_TRUE(clean.ok());
  ASSERT_FALSE(clean->stats.fell_back);

  db_.ssd()->fault_injector().Load(
      OneFault(FaultKind::kDeviceReset, TriggerUnit::kPagesRead, 40));
  auto degraded = RunSmart(spec);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->stats.fell_back);
  EXPECT_EQ(degraded->stats.target, engine::ExecutionTarget::kHost);
  EXPECT_EQ(degraded->stats.device_attempts, 1u);
  EXPECT_NE(degraded->stats.fallback_reason.find("ABORTED"),
            std::string::npos);
  // The defining property: byte-identical results.
  EXPECT_EQ(degraded->rows, clean->rows);
  EXPECT_EQ(degraded->agg_values, clean->agg_values);
  // The wasted device attempt shows up in elapsed time.
  EXPECT_GT(degraded->stats.elapsed(), clean->stats.elapsed());
  EXPECT_EQ(db_.circuit_breaker().total_failures(), 1u);
}

TEST_F(DegradedExecutionTest, EveryFaultKindFallsBackByteIdentical) {
  const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
  auto clean = RunSmart(spec);
  ASSERT_TRUE(clean.ok());

  struct Case {
    const char* label;
    FaultSchedule schedule;
  };
  const Case cases[] = {
      {"uncorrectable read",
       OneFault(FaultKind::kUncorrectableRead, TriggerUnit::kPagesRead,
                30)},
      {"device reset",
       OneFault(FaultKind::kDeviceReset, TriggerUnit::kPagesRead, 30)},
      {"open rejected",
       OneFault(FaultKind::kOpenRejected, TriggerUnit::kSimTime, 0)},
      {"get stall beyond budget",
       OneFault(FaultKind::kGetStall, TriggerUnit::kSimTime, 0,
                /*count=*/100)},
      {"result queue overflow",
       OneFault(FaultKind::kResultQueueOverflow, TriggerUnit::kPagesRead,
                30)},
      {"transfer error",
       OneFault(FaultKind::kTransferError, TriggerUnit::kBytesTransferred,
                1)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    db_.ssd()->fault_injector().Load(c.schedule);
    auto degraded = RunSmart(spec);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_TRUE(degraded->stats.fell_back);
    EXPECT_EQ(degraded->rows, clean->rows);
    EXPECT_EQ(degraded->agg_values, clean->agg_values);
    db_.ssd()->fault_injector().Clear();
  }
}

TEST_F(DegradedExecutionTest, SemanticRefusalDoesNotFallBack) {
  // Dirty pages are a coherence refusal, not a device fault: the caller
  // asked for pushdown specifically and must see the refusal.
  db_.ResetForColdRun();
  auto info = db_.catalog().GetTable("lineitem");
  ASSERT_TRUE(info.ok());
  std::vector<std::byte> page(db_.device().page_size(), std::byte{0});
  ASSERT_TRUE(
      db_.buffer_pool().WritePage((*info)->first_lpn, page, 0).ok());
  engine::QueryExecutor executor(&db_);
  auto result = executor.Execute(tpch::Q6Spec("lineitem"),
                                 engine::ExecutionTarget::kSmartSsd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.circuit_breaker().total_failures(), 0u);
}

TEST_F(DegradedExecutionTest, BreakerOpensThenPlannerRoutesAround) {
  const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
  const FaultSchedule reset_schedule =
      OneFault(FaultKind::kDeviceReset, TriggerUnit::kPagesRead, 20);
  const std::uint32_t threshold = db_.options().breaker.failure_threshold;
  for (std::uint32_t i = 0; i < threshold; ++i) {
    db_.ssd()->fault_injector().Load(reset_schedule);
    auto degraded = RunSmart(spec);
    ASSERT_TRUE(degraded.ok());
    ASSERT_TRUE(degraded->stats.fell_back);
  }
  EXPECT_TRUE(db_.circuit_breaker().open());
  EXPECT_EQ(db_.circuit_breaker().trips(), 1u);

  // The fallback runs populated the buffer pool; empty it so the
  // planner's cache rule does not mask the breaker's decision.
  db_.ResetForColdRun();
  auto bound = exec::Bind(spec, db_.catalog());
  ASSERT_TRUE(bound.ok());
  engine::PushdownPlanner planner(&db_);

  // During cool-down the planner refuses the device outright.
  auto during = planner.Decide(*bound, /*now=*/0);
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->target, engine::ExecutionTarget::kHost);
  EXPECT_NE(during->reason.find("circuit breaker"), std::string::npos);

  // Past the cool-down it probes the device again; with faults cleared
  // the probe succeeds and the breaker closes.
  db_.ssd()->fault_injector().Clear();
  const SimTime later = 1000 * kSecond;
  auto after = planner.Decide(*bound, later);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->target, engine::ExecutionTarget::kSmartSsd);
  auto probe = RunSmart(spec);
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->stats.fell_back);
  EXPECT_FALSE(db_.circuit_breaker().open());
}

TEST_F(DegradedExecutionTest, FaultsDisabledIdenticalTimeline) {
  // With nothing injected the fault machinery must not perturb timing:
  // two clean runs (and one with an empty schedule loaded) agree to the
  // nanosecond.
  const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
  auto a = RunSmart(spec);
  auto b = RunSmart(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.end, b->stats.end);
  db_.ssd()->fault_injector().Load({});
  auto c = RunSmart(spec);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->stats.end, c->stats.end);
  EXPECT_EQ(a->rows, c->rows);
}

}  // namespace
}  // namespace smartssd
