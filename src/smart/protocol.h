#ifndef SMARTSSD_SMART_PROTOCOL_H_
#define SMARTSSD_SMART_PROTOCOL_H_

#include <cstdint>

#include "common/units.h"

namespace smartssd::smart {

// The three-command session protocol of Section 3. The protocol rides the
// standard SATA/SAS transport: every command costs one host-interface
// command round, and all result data flows back through GET responses
// (the device is a passive entity — it never initiates a transfer).
enum class CommandType {
  kOpen,   // start session: grant threads + memory, return session id
  kGet,    // poll status, drain available result data
  kClose,  // tear down session, free resources
};

using SessionId = std::uint64_t;

enum class SessionState {
  kIdle,       // no session
  kRunning,    // program still processing
  kDrained,    // program finished, all results delivered
  kClosed,
};

// Virtual time a device needs to come back after a (injected) controller
// reset before the host can reach it again.
inline constexpr SimDuration kDeviceResetRecovery = 10 * kMillisecond;

// Host-side GET polling. While the device reports kRunning with no data
// ready, the host sleeps a fixed kPollInterval before the next GET.
//
// A GET whose response does not arrive within kGetTimeout is treated as
// lost: the host re-issues it, spending one unit of the per-session
// retry budget. A session that exhausts kSessionRetryBudget fails, and
// the engine falls back to the host scan path.
inline constexpr SimDuration kPollInterval = 500 * kMicrosecond;
inline constexpr SimDuration kGetTimeout = 50 * kMillisecond;
inline constexpr std::uint32_t kSessionRetryBudget = 3;

}  // namespace smartssd::smart

#endif  // SMARTSSD_SMART_PROTOCOL_H_
