#ifndef SMARTSSD_SMART_RUNTIME_H_
#define SMARTSSD_SMART_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "obs/trace.h"
#include "smart/program.h"
#include "smart/protocol.h"
#include "ssd/ssd_device.h"

namespace smartssd::smart {

class SessionTask;

// Everything a completed session reports back to the host-side executor.
struct SessionStats {
  SessionId session_id = 0;
  SimTime open_issued = 0;
  SimTime open_done = 0;        // OPEN acknowledged, build phase complete
  SimTime processing_done = 0;  // last page processed on the device
  SimTime last_transfer_done = 0;  // last result byte at the host
  SimTime close_done = 0;       // CLOSE acknowledged: session elapsed end
  std::uint64_t pages_processed = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t embedded_cycles = 0;
  std::uint64_t gets_issued = 0;
  // Stalled GETs the host re-issued (each consumed one unit of the
  // session retry budget and recovered).
  std::uint32_t get_retries = 0;
  // Hybrid-join spill traffic on the internal path (pages of build and
  // probe partitions written to / read back from flash).
  std::uint64_t spill_pages_written = 0;
  std::uint64_t spill_pages_read = 0;

  SimDuration elapsed() const { return close_done - open_issued; }
};

// The Smart SSD runtime framework of Section 3: accepts a user-defined
// program through OPEN, streams its declared input extents through the
// internal data path, schedules its per-page work on the embedded cores,
// and delivers its output to the host through polled GET commands.
//
// Two driving modes share one protocol implementation (SessionTask):
//
//   * RunSession — the blocking single-session API: executes the whole
//     OPEN -> GET* -> CLOSE exchange and returns the timeline. The host
//     result bytes are appended to `host_output` exactly as the GET
//     responses deliver them.
//   * StartSession — the resumable multi-session API: returns a
//     SessionTask the caller advances one protocol unit at a time, so a
//     workload scheduler can interleave many live sessions on the shared
//     device resources. Every open session holds one firmware thread
//     grant (session_slots_free()); callers should park new sessions
//     while the pool is empty rather than eat an OPEN rejection.
//
// Failure semantics: the session protocol survives recoverable faults
// (stalled GETs within the retry budget) and turns everything else —
// uncorrectable reads, device resets, rejected OPENs, queue overflows,
// transfer errors — into a non-OK Status with guaranteed teardown: all
// thread/DRAM grants are released on every exit path, enforced by a
// session-leak check against the device's DRAM accounting. On failure
// `failed_at` (if non-null) receives the virtual time at which the
// session was torn down, so the caller can resume (e.g. fall back to the
// host path) on a consistent clock.
class SmartSsdRuntime {
 public:
  explicit SmartSsdRuntime(ssd::SsdDevice* device);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(SmartSsdRuntime);

  Result<SessionStats> RunSession(InSsdProgram& program, SimTime start,
                                  std::vector<std::byte>* host_output,
                                  SimTime* failed_at = nullptr);

  // Opens a resumable session. No device traffic happens until the first
  // Step(); the task borrows `program` and `host_output` for its
  // lifetime. Destroying an unfinished task releases its grants.
  std::unique_ptr<SessionTask> StartSession(
      InSsdProgram& program, SimTime start,
      std::vector<std::byte>* host_output);

  ssd::SsdDevice& device() { return *device_; }

  // Firmware thread grants still available for new sessions. A scheduler
  // holds queries at the host while this is 0 (Section 3: OPEN grants a
  // thread, and the pool is what bounds in-device concurrency).
  int session_slots_free() const {
    return device_->session_threads_free();
  }

  std::uint64_t sessions_run() const { return sessions_run_; }
  std::uint64_t sessions_failed() const { return sessions_failed_; }
  // Sessions whose task was destroyed mid-flight (its driver went away
  // before the session finished). Their grants were still released;
  // they just never reached CLOSE or failure.
  std::uint64_t sessions_abandoned() const { return sessions_abandoned_; }
  // Sessions currently holding a firmware thread grant (OPEN granted,
  // not yet retired), and the high-water mark — the device's actual
  // in-flight concurrency, bounded by session_threads.
  int active_sessions() const { return active_sessions_; }
  int max_active_sessions() const { return max_active_sessions_; }

  // True if a completed multi-session epoch left device DRAM grants
  // unreturned (checked whenever the live-session count returns to
  // zero). The blocking RunSession path reports the same condition as an
  // InternalError instead.
  bool session_leak_detected() const { return leak_detected_; }

  // Records the protocol timeline — OPEN/GET/CLOSE spans, poll backoff
  // and stall instants, session failures — on a "session" lane under
  // `process` (the host side, which drives the protocol). nullptr
  // detaches.
  void AttachTracer(obs::Tracer* tracer, std::string_view process);

 private:
  friend class SessionTask;

  // Session lifecycle accounting, called by SessionTask.
  void NoteSessionBegin();
  void NoteSessionFinished(bool failed, SimTime fail_time,
                           const Status& status);
  void NoteSessionAbandoned() { ++sessions_abandoned_; }
  void NoteSessionRetired();

  ssd::SsdDevice* device_;
  SessionId next_session_id_ = 1;
  std::uint64_t sessions_run_ = 0;
  std::uint64_t sessions_failed_ = 0;
  std::uint64_t sessions_abandoned_ = 0;
  int active_sessions_ = 0;
  int max_active_sessions_ = 0;
  std::uint64_t idle_dram_free_ = 0;
  bool leak_detected_ = false;
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
};

}  // namespace smartssd::smart

#endif  // SMARTSSD_SMART_RUNTIME_H_
