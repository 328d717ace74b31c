#ifndef SMARTSSD_CHECK_INVARIANTS_H_
#define SMARTSSD_CHECK_INVARIANTS_H_

// Structural invariants checked after every harness execution, on top
// of the byte-identical-results comparison. These catch the class of
// bug that produces the right answer with corrupted bookkeeping: leaked
// trace spans, events stamped at impossible virtual times, device DRAM
// that is never returned, a breaker in a contradictory state, zone-map
// ranges that no longer describe the stored pages.

#include "common/result.h"
#include "engine/circuit_breaker.h"
#include "engine/database.h"
#include "engine/fleet.h"
#include "obs/trace.h"

namespace smartssd::check {

// Every span is closed with start <= end, and each track's instant
// events appear in non-decreasing virtual-time order (the simulator is
// single-threaded, so a rewind on a lane means someone recorded an
// event with a stale or defaulted timestamp).
Status CheckTraceInvariants(const obs::Tracer& tracer);

// After a completed query every session's scratch allocations must be
// back: device DRAM free space equals the configured capacity.
Status CheckNoDeviceDramLeak(const engine::Database& db);

// The breaker's externally visible state is self-consistent.
Status CheckBreakerSanity(const engine::DeviceCircuitBreaker& breaker);

// `live` has `want`'s pages and ranges; the error names the first page
// and column that differ.
Status CheckZoneMapEquals(const storage::TableInfo& info,
                          const storage::ZoneMap& live,
                          const storage::ZoneMap& want);

// Every table with a zone map and no dirty pool page has a map equal to
// ZoneMap::Build over the device's pages (SsdDevice::ViewPage, which
// charges no virtual time). No-op on an HDD.
Status CheckZoneMapsMatchStorage(const engine::Database& db);

// All database-level invariants (DRAM + breaker) in one call.
Status CheckDatabaseInvariants(const engine::Database& db);

// Fleet-wide sweep: DRAM-leak, breaker-sanity, and session-leak checks
// on every device. The error message names the offending device. (Span
// balance across the fleet's device tracks is CheckTraceInvariants on
// the tracer the fleet was attached to — all devices share it.)
Status CheckFleetInvariants(const engine::Fleet& fleet);

}  // namespace smartssd::check

#endif  // SMARTSSD_CHECK_INVARIANTS_H_
