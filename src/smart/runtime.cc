#include "smart/runtime.h"

#include <algorithm>
#include <utility>

#include "smart/session_task.h"

namespace smartssd::smart {

SmartSsdRuntime::SmartSsdRuntime(ssd::SsdDevice* device) : device_(device) {
  SMARTSSD_CHECK(device != nullptr);
}

void SmartSsdRuntime::AttachTracer(obs::Tracer* tracer,
                                   std::string_view process) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    track_ = tracer_->RegisterTrack(process, "session");
  }
}

std::unique_ptr<SessionTask> SmartSsdRuntime::StartSession(
    InSsdProgram& program, SimTime start,
    std::vector<std::byte>* host_output) {
  return std::unique_ptr<SessionTask>(
      new SessionTask(this, &program, start, host_output));
}

Result<SessionStats> SmartSsdRuntime::RunSession(
    InSsdProgram& program, SimTime start,
    std::vector<std::byte>* host_output, SimTime* failed_at) {
  const std::uint64_t dram_free_before = device_->device_dram_free();
  std::unique_ptr<SessionTask> task =
      StartSession(program, start, host_output);
  Status error = Status::OK();
  while (!task->finished()) {
    Result<SimTime> step = task->Step();
    if (!step.ok()) {
      error = step.status();
      break;
    }
  }
  if (task->failed() && failed_at != nullptr) {
    *failed_at = task->fail_time();
  }
  // Session-leak check: every grant the session took — DRAM for hash
  // tables and buffers, accounted by SessionServices — must be back,
  // whether the session succeeded or was torn down mid-stream. A leak
  // here would starve every later pushdown, so it is an engine bug worth
  // failing loudly (but recoverably) over.
  if (device_->device_dram_free() != dram_free_before) {
    return InternalError("smart session leaked device resource grants");
  }
  if (!error.ok()) return error;
  return task->stats();
}

void SmartSsdRuntime::NoteSessionBegin() {
  if (active_sessions_ == 0) {
    idle_dram_free_ = device_->device_dram_free();
  }
  ++active_sessions_;
  max_active_sessions_ = std::max(max_active_sessions_, active_sessions_);
}

void SmartSsdRuntime::NoteSessionFinished(bool failed, SimTime fail_time,
                                          const Status& status) {
  ++sessions_run_;
  if (failed) {
    ++sessions_failed_;
    if (tracer_ != nullptr) {
      tracer_->Instant(
          track_, "session failed", "protocol", fail_time,
          {obs::Arg::Str("code", StatusCodeToString(status.code())),
           obs::Arg::Str("error", status.message())});
    }
  }
}

void SmartSsdRuntime::NoteSessionRetired() {
  SMARTSSD_CHECK_GT(active_sessions_, 0);
  --active_sessions_;
  if (active_sessions_ == 0 &&
      device_->device_dram_free() != idle_dram_free_) {
    leak_detected_ = true;
  }
}

}  // namespace smartssd::smart
