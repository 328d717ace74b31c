#ifndef SMARTSSD_SMART_PROTOCOL_H_
#define SMARTSSD_SMART_PROTOCOL_H_

#include <cstdint>

#include "common/units.h"

namespace smartssd::smart {

// The three-command session protocol of Section 3: OPEN starts a
// session (grants threads and memory, returns its id), GET polls status
// and drains available result data, CLOSE tears the session down. It
// rides the standard SATA/SAS transport: every command costs one
// host-interface command round, and all result data flows back through
// GET responses (the device is a passive entity — it never initiates a
// transfer).
using SessionId = std::uint64_t;

// Virtual time a device needs to come back after a (injected) controller
// reset before the host can reach it again.
inline constexpr SimDuration kDeviceResetRecovery = 10 * kMillisecond;

// Host-side GET polling. While the device reports its program still
// running with no data ready, the host sleeps a fixed kPollInterval
// before the next GET.
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
