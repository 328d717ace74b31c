#ifndef SMARTSSD_SMART_SESSION_TASK_H_
#define SMARTSSD_SMART_SESSION_TASK_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "smart/program.h"
#include "smart/protocol.h"
#include "smart/result_queue.h"
#include "smart/runtime.h"
#include "ssd/ssd_device.h"

namespace smartssd::smart {

// One Smart SSD session as a resumable state machine. The monolithic
// OPEN -> stream/process -> GET* -> CLOSE exchange of RunSession is
// split into steps that each retire one protocol unit:
//
//   kOpen           the OPEN command round, thread + DRAM grants, and
//                   the program's build phase;
//   kProcess        one input page: internal read, program callback,
//                   embedded execution, result-queue append;
//   kFinishProgram  the program's Finish callback and final flush;
//   kPoll           one GET round: command, drain ready chunks over the
//                   host link, sleep kPollInterval if nothing was ready;
//   kClose          the CLOSE command round and grant teardown.
//
// Driven to completion in a tight loop (SmartSsdRuntime::RunSession does
// exactly that), the device sees the identical call sequence the old
// blocking loop issued, so solo timelines are byte-identical. Driven by
// a scheduler that interleaves many tasks, co-running sessions' requests
// reach the shared FIFO resources (flash channels, DRAM bus, embedded
// cores, host link) in virtual-time order instead of submission order —
// genuine concurrent sharing instead of serialization.
//
// Failure semantics match RunSession: any non-recoverable device fault
// tears the session down on the spot (thread grant and DRAM released,
// runtime accounting updated, a "session failed" instant traced) and
// surfaces as the Step() error; fail_time() holds the teardown time.
class SessionTask {
 public:
  ~SessionTask();
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(SessionTask);

  // Advances one protocol unit. Returns the virtual time that unit
  // retired at — when the session next has work ready. Calling Step()
  // on a finished task is a programmer error.
  Result<SimTime> Step();

  bool done() const { return state_ == State::kDone; }
  bool failed() const { return state_ == State::kFailed; }
  bool finished() const { return done() || failed(); }
  SimTime fail_time() const { return fail_time_; }

  // Valid once done(): the completed session's timeline.
  const SessionStats& stats() const { return stats_; }

 private:
  friend class SmartSsdRuntime;

  enum class State {
    kOpen,
    kProcess,
    kFinishProgram,
    kPoll,
    kClose,
    kDone,
    kFailed,
  };

  // Device adapter with DRAM bookkeeping so teardown can release
  // everything the session allocated (same contract the blocking
  // runtime always had).
  class SessionServices : public DeviceServices {
   public:
    explicit SessionServices(ssd::SsdDevice* device) : device_(device) {}
    ~SessionServices() override {
      // Release in the reverse of acquisition: spill extents first
      // (trimming their flash pages), then the DRAM grant.
      for (const auto& [lpn, pages] : spill_extents_) {
        device_->ReleaseSpillExtent(lpn, pages);
      }
      if (allocated_ > 0) device_->ReleaseDeviceDram(allocated_);
    }

    std::uint32_t page_size() const override {
      return device_->page_size();
    }
    Result<SimTime> ReadInternal(std::uint64_t lpn,
                                 SimTime ready) override {
      return device_->InternalReadPageTiming(lpn, ready);
    }
    std::span<const std::byte> ViewPage(std::uint64_t lpn) const override {
      return device_->ViewPage(lpn);
    }
    SimTime Execute(std::uint64_t cycles, SimTime ready) override {
      return device_->ExecuteOnDevice(cycles, ready);
    }
    Status AllocateDram(std::uint64_t bytes) override {
      SMARTSSD_RETURN_IF_ERROR(device_->AllocateDeviceDram(bytes));
      allocated_ += bytes;
      return Status::OK();
    }

    Result<std::uint64_t> AllocateSpillExtent(
        std::uint64_t pages) override {
      SMARTSSD_ASSIGN_OR_RETURN(const std::uint64_t lpn,
                                device_->AllocateSpillExtent(pages));
      spill_extents_.emplace_back(lpn, pages);
      return lpn;
    }
    Result<SimTime> WriteSpillPage(
        std::uint64_t lpn, std::span<const std::byte> data) override {
      SMARTSSD_ASSIGN_OR_RETURN(
          const SimTime done,
          device_->InternalWritePage(lpn, data,
                                     std::max(now_, spill_done_)));
      spill_done_ = done;
      ++spill_pages_written_;
      return done;
    }
    Result<SimTime> ReadSpillPage(std::uint64_t lpn) override {
      SMARTSSD_ASSIGN_OR_RETURN(
          const SimTime done,
          device_->InternalReadPageTiming(lpn,
                                          std::max(now_, spill_done_)));
      spill_done_ = done;
      ++spill_pages_read_;
      return done;
    }
    void NoteTime(SimTime now) override {
      now_ = std::max(now_, now);
    }

    // Latest spill-I/O completion, so the session's close can wait for
    // in-flight spill traffic.
    SimTime spill_done() const { return spill_done_; }
    std::uint64_t spill_pages_written() const {
      return spill_pages_written_;
    }
    std::uint64_t spill_pages_read() const { return spill_pages_read_; }

   private:
    ssd::SsdDevice* device_;
    std::uint64_t allocated_ = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spill_extents_;
    SimTime now_ = 0;
    SimTime spill_done_ = 0;
    std::uint64_t spill_pages_written_ = 0;
    std::uint64_t spill_pages_read_ = 0;
  };

  // Collects the bytes a program emits during one callback; the task
  // stamps them with the callback's completion time afterwards.
  class BufferingSink : public ResultSink {
   public:
    void Emit(std::span<const std::byte> bytes) override {
      buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    }
    std::span<const std::byte> bytes() const { return buffer_; }
    void Clear() { buffer_.clear(); }

   private:
    std::vector<std::byte> buffer_;
  };

  SessionTask(SmartSsdRuntime* runtime, InSsdProgram* program,
              SimTime start, std::vector<std::byte>* host_output);

  Result<SimTime> StepOpen();
  Result<SimTime> StepProcess();
  Result<SimTime> StepFinishProgram();
  Result<SimTime> StepPoll();
  Result<SimTime> StepClose();

  // Marks the task failed, releases every grant, and records the
  // runtime-side accounting + trace instant. Returns `error` through.
  Status Fail(const Status& error);
  void ReleaseGrants();
  void RetireIfBegan();

  SmartSsdRuntime* runtime_;
  ssd::SsdDevice* device_;
  InSsdProgram* program_;
  std::vector<std::byte>* host_output_;

  State state_ = State::kOpen;
  SessionStats stats_;
  SimTime start_ = 0;
  SimTime fail_time_ = 0;

  std::optional<SessionServices> services_;
  bool has_thread_grant_ = false;
  // A session is "active" from firmware-thread grant to retirement; the
  // runtime's concurrency accounting only sees granted sessions.
  bool begin_noted_ = false;

  ResultQueue queue_;
  BufferingSink sink_;

  // Streaming cursor over the program's declared extents.
  std::vector<LpnRange> extents_;
  std::size_t extent_idx_ = 0;
  std::uint64_t page_in_extent_ = 0;

  SimTime open_done_ = 0;
  SimTime processing_done_ = 0;

  // GET polling state.
  SimTime poll_time_ = 0;
  SimTime last_transfer_ = 0;
  std::uint32_t retries_left_ = 0;
};

}  // namespace smartssd::smart

#endif  // SMARTSSD_SMART_SESSION_TASK_H_
