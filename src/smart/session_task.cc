#include "smart/session_task.h"

#include <algorithm>
#include <utility>

namespace smartssd::smart {

SessionTask::SessionTask(SmartSsdRuntime* runtime, InSsdProgram* program,
                         SimTime start, std::vector<std::byte>* host_output)
    : runtime_(runtime),
      device_(&runtime->device()),
      program_(program),
      host_output_(host_output),
      start_(start),
      fail_time_(start),
      queue_(runtime->device().page_size()) {
  stats_.session_id = runtime_->next_session_id_++;
  stats_.open_issued = start;
}

SessionTask::~SessionTask() {
  // An abandoned in-flight task (its driver went away before the
  // session finished) still hands every grant back; it just skips the
  // completed/failed bookkeeping.
  if (begin_noted_) runtime_->NoteSessionAbandoned();
  ReleaseGrants();
  RetireIfBegan();
}

Result<SimTime> SessionTask::Step() {
  switch (state_) {
    case State::kOpen:
      return StepOpen();
    case State::kProcess:
      return StepProcess();
    case State::kFinishProgram:
      return StepFinishProgram();
    case State::kPoll:
      return StepPoll();
    case State::kClose:
      return StepClose();
    case State::kDone:
    case State::kFailed:
      break;
  }
  SMARTSSD_CHECK(false);  // Step() on a finished session task
  return InternalError("unreachable");
}

Result<SimTime> SessionTask::StepOpen() {
  sim::FaultInjector& faults = device_->fault_injector();

  // --- OPEN: command round + resource grants + program build phase ---
  const SimTime t = device_->HostCommand(start_);
  fail_time_ = t;
  if (faults.OnEvent(sim::FaultKind::kOpenRejected, t)) {
    return Fail(ResourceExhaustedError(
        "OPEN rejected by the device (injected fault)"));
  }
  const Status thread_grant = device_->AcquireSessionThread();
  if (!thread_grant.ok()) return Fail(thread_grant);
  has_thread_grant_ = true;
  begin_noted_ = true;
  runtime_->NoteSessionBegin();
  services_.emplace(device_);
  services_->NoteTime(t);
  const std::uint64_t dram_needed = program_->DramBytesRequired();
  if (dram_needed > 0) {
    const Status dram = services_->AllocateDram(dram_needed);
    if (!dram.ok()) return Fail(dram);
  }
  Result<SimTime> opened = program_->Open(*services_, t);
  if (!opened.ok()) return Fail(opened.status());
  // Spill writes issued while evicting build partitions complete before
  // the OPEN acknowledges.
  open_done_ = std::max({opened.value(), t, services_->spill_done()});
  stats_.open_done = open_done_;
  fail_time_ = open_done_;
  if (runtime_->tracer_ != nullptr) {
    runtime_->tracer_->Complete(
        runtime_->track_, "OPEN", "protocol", start_, open_done_,
        {obs::Arg::Uint("session", stats_.session_id),
         obs::Arg::Uint("dram_bytes", dram_needed)});
  }

  processing_done_ = open_done_;
  extents_ = program_->InputExtents();
  extent_idx_ = 0;
  page_in_extent_ = 0;
  while (extent_idx_ < extents_.size() &&
         extents_[extent_idx_].count == 0) {
    ++extent_idx_;
  }
  state_ = extent_idx_ < extents_.size() ? State::kProcess
                                         : State::kFinishProgram;
  return open_done_;
}

Result<SimTime> SessionTask::StepProcess() {
  sim::FaultInjector& faults = device_->fault_injector();
  const LpnRange& extent = extents_[extent_idx_];
  const std::uint64_t lpn = extent.first_lpn + page_in_extent_;

  // Reads stream against the OPEN completion time: the device issues
  // them as fast as the flash channels and DRAM bus admit, independent
  // of how far the embedded cores have gotten.
  Result<SimTime> read = device_->InternalReadPageTiming(lpn, open_done_);
  if (!read.ok()) return Fail(read.status());
  sink_.Clear();
  services_->NoteTime(read.value());
  Result<ProgramCharge> charge =
      program_->ProcessPage(device_->ViewPage(lpn), sink_);
  if (!charge.ok()) return Fail(charge.status());
  // Probe-side spill writes issued during the callback belong to this
  // page's work; the page retires once both CPU and spill I/O are done.
  const SimTime done = std::max(
      device_->ExecuteOnDevice(charge.value().cycles, read.value()),
      services_->spill_done());
  if (faults.OnEvent(sim::FaultKind::kDeviceReset, done)) {
    fail_time_ = done + kDeviceResetRecovery;
    return Fail(AbortedError("device reset mid-session (injected fault)"));
  }
  if (faults.OnEvent(sim::FaultKind::kResultQueueOverflow, done)) {
    fail_time_ = done;
    return Fail(ResourceExhaustedError(
        "device result queue overflow (injected fault)"));
  }
  queue_.Append(sink_.bytes(), done);
  stats_.embedded_cycles += charge.value().cycles;
  ++stats_.pages_processed;
  processing_done_ = std::max(processing_done_, done);
  fail_time_ = processing_done_;

  // Advance the page cursor; skip empty extents.
  ++page_in_extent_;
  if (page_in_extent_ >= extents_[extent_idx_].count) {
    page_in_extent_ = 0;
    ++extent_idx_;
    while (extent_idx_ < extents_.size() &&
           extents_[extent_idx_].count == 0) {
      ++extent_idx_;
    }
    if (extent_idx_ >= extents_.size()) state_ = State::kFinishProgram;
  }
  return processing_done_;
}

Result<SimTime> SessionTask::StepFinishProgram() {
  sink_.Clear();
  services_->NoteTime(processing_done_);
  Result<ProgramCharge> final_charge = program_->Finish(sink_);
  if (!final_charge.ok()) return Fail(final_charge.status());
  // Multi-pass probing reads spilled partitions back during Finish; the
  // program is done when both the CPU work and that I/O retire.
  processing_done_ = std::max(
      device_->ExecuteOnDevice(final_charge.value().cycles,
                               processing_done_),
      services_->spill_done());
  stats_.embedded_cycles += final_charge.value().cycles;
  stats_.spill_pages_written = services_->spill_pages_written();
  stats_.spill_pages_read = services_->spill_pages_read();
  queue_.Append(sink_.bytes(), processing_done_);
  queue_.Flush(processing_done_);
  stats_.processing_done = processing_done_;
  fail_time_ = processing_done_;
  if (runtime_->tracer_ != nullptr) {
    runtime_->tracer_->Complete(
        runtime_->track_, "process extents", "protocol", open_done_,
        processing_done_,
        {obs::Arg::Uint("pages", stats_.pages_processed),
         obs::Arg::Uint("embedded_cycles", stats_.embedded_cycles)});
  }

  // The host's polling loop overlaps device processing: it starts right
  // after the OPEN acknowledgment, not after the last page retires.
  poll_time_ = open_done_;
  last_transfer_ = open_done_;
  retries_left_ = kSessionRetryBudget;
  state_ = State::kPoll;
  return processing_done_;
}

Result<SimTime> SessionTask::StepPoll() {
  sim::FaultInjector& faults = device_->fault_injector();
  const SimTime get_issued = poll_time_;
  poll_time_ = device_->HostCommand(poll_time_);  // the GET itself
  ++stats_.gets_issued;
  fail_time_ = poll_time_;
  if (faults.OnEvent(sim::FaultKind::kDeviceReset, poll_time_)) {
    fail_time_ = poll_time_ + kDeviceResetRecovery;
    return Fail(AbortedError("device reset mid-session (injected fault)"));
  }
  if (faults.OnEvent(sim::FaultKind::kGetStall, poll_time_)) {
    // The response never arrives: the host times out and re-issues,
    // burning one unit of the session retry budget.
    if (retries_left_ == 0) {
      fail_time_ = poll_time_ + kGetTimeout;
      return Fail(IoError("GET stalled; session retry budget exhausted"));
    }
    --retries_left_;
    ++stats_.get_retries;
    if (runtime_->tracer_ != nullptr) {
      runtime_->tracer_->Instant(
          runtime_->track_, "GET stall", "protocol", poll_time_,
          {obs::Arg::Uint("retries_left", retries_left_)});
    }
    poll_time_ += kGetTimeout;
    return poll_time_;
  }
  bool transferred = false;
  ResultChunk chunk;
  while (queue_.PopReady(poll_time_, &chunk)) {
    if (faults.OnBytes(sim::FaultKind::kTransferError, chunk.data.size(),
                       poll_time_)) {
      fail_time_ = poll_time_;
      return Fail(IoError(
          "result transfer failed on the host interface (injected "
          "fault)"));
    }
    poll_time_ = device_->TransferToHost(chunk.data.size(), poll_time_);
    if (host_output_ != nullptr) {
      host_output_->insert(host_output_->end(), chunk.data.begin(),
                           chunk.data.end());
    }
    stats_.result_bytes += chunk.data.size();
    last_transfer_ = poll_time_;
    transferred = true;
  }
  if (runtime_->tracer_ != nullptr) {
    runtime_->tracer_->Complete(
        runtime_->track_, "GET", "protocol", get_issued, poll_time_,
        {obs::Arg::Uint("delivered", transferred ? 1 : 0)});
  }
  if (queue_.pending_chunks() == 0 && poll_time_ >= processing_done_) {
    // This GET saw the program finished with nothing left to deliver.
    stats_.last_transfer_done = last_transfer_;
    state_ = State::kClose;
    return poll_time_;
  }
  if (!transferred) {
    if (runtime_->tracer_ != nullptr) {
      runtime_->tracer_->Instant(
          runtime_->track_, "poll backoff", "protocol", poll_time_,
          {obs::Arg::Uint("interval_ns", kPollInterval)});
    }
    poll_time_ += kPollInterval;
  }
  return poll_time_;
}

Result<SimTime> SessionTask::StepClose() {
  // --- CLOSE: tear down, free grants ---
  stats_.close_done = device_->HostCommand(poll_time_);
  if (runtime_->tracer_ != nullptr) {
    runtime_->tracer_->Complete(
        runtime_->track_, "CLOSE", "protocol", poll_time_,
        stats_.close_done,
        {obs::Arg::Uint("session", stats_.session_id)});
  }
  ReleaseGrants();
  state_ = State::kDone;
  runtime_->NoteSessionFinished(/*failed=*/false, stats_.close_done,
                                Status::OK());
  RetireIfBegan();
  return stats_.close_done;
}

Status SessionTask::Fail(const Status& error) {
  state_ = State::kFailed;
  ReleaseGrants();
  runtime_->NoteSessionFinished(/*failed=*/true, fail_time_, error);
  RetireIfBegan();
  return error;
}

void SessionTask::RetireIfBegan() {
  if (begin_noted_) {
    begin_noted_ = false;
    runtime_->NoteSessionRetired();
  }
}

void SessionTask::ReleaseGrants() {
  services_.reset();  // hands session DRAM back
  if (has_thread_grant_) {
    device_->ReleaseSessionThread();
    has_thread_grant_ = false;
  }
}

}  // namespace smartssd::smart
