#include "check/invariants.h"

#include <map>
#include <string>

namespace smartssd::check {

Status CheckTraceInvariants(const obs::Tracer& tracer) {
  if (tracer.open_spans() != 0) {
    return InternalError("trace invariant: " +
                         std::to_string(tracer.open_spans()) +
                         " span(s) left open after execution");
  }
  std::map<obs::TrackId, SimTime> last_instant;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.track >= tracer.tracks().size()) {
      return InternalError("trace invariant: event '" + event.name +
                           "' on unregistered track " +
                           std::to_string(event.track));
    }
    if (event.phase == obs::TraceEvent::Phase::kSpan) {
      if (event.open()) {
        return InternalError("trace invariant: span '" + event.name +
                             "' never ended");
      }
      if (event.end < event.start) {
        return InternalError(
            "trace invariant: span '" + event.name + "' ends at " +
            std::to_string(event.end) + " before its start " +
            std::to_string(event.start));
      }
      continue;
    }
    // Instants on one lane must be recorded in virtual-time order; a
    // rewind means a stale or defaulted timestamp (the bug class of
    // RecordSuccess stamping "breaker close" at time 0).
    auto [it, inserted] = last_instant.emplace(event.track, event.start);
    if (!inserted) {
      if (event.start < it->second) {
        const obs::Track& track = tracer.tracks()[event.track];
        return InternalError(
            "trace invariant: instant '" + event.name + "' on " +
            track.process + "/" + track.thread + " at " +
            std::to_string(event.start) + " rewinds behind " +
            std::to_string(it->second));
      }
      it->second = event.start;
    }
  }
  return Status::OK();
}

Status CheckNoDeviceDramLeak(const engine::Database& db) {
  const ssd::SsdDevice* ssd = db.ssd();
  if (ssd == nullptr) return Status::OK();
  const std::uint64_t capacity = db.options().ssd.dram.capacity_bytes;
  if (ssd->device_dram_free() != capacity) {
    return InternalError(
        "device DRAM leak: " +
        std::to_string(capacity - ssd->device_dram_free()) +
        " bytes still allocated after execution");
  }
  if (ssd->spill_pages_held() != 0) {
    return InternalError(
        "spill extent leak: " + std::to_string(ssd->spill_pages_held()) +
        " logical page(s) still held after execution");
  }
  return Status::OK();
}

Status CheckBreakerSanity(const engine::DeviceCircuitBreaker& breaker) {
  using State = engine::DeviceCircuitBreaker::State;
  if (breaker.probe_in_flight() && breaker.state() != State::kHalfOpen) {
    return InternalError(std::string("breaker invariant: probe in flight "
                                     "while state is ") +
                         engine::BreakerStateName(breaker.state()));
  }
  if (breaker.trips() > breaker.total_failures()) {
    return InternalError("breaker invariant: " +
                         std::to_string(breaker.trips()) +
                         " trips exceed " +
                         std::to_string(breaker.total_failures()) +
                         " recorded failures");
  }
  if (breaker.state() == State::kOpen &&
      breaker.consecutive_failures() == 0) {
    return InternalError(
        "breaker invariant: open with zero consecutive failures");
  }
  return Status::OK();
}

Status CheckZoneMapEquals(const storage::TableInfo& info,
                          const storage::ZoneMap& live,
                          const storage::ZoneMap& want) {
  if (live.pages() != want.pages()) {
    return InternalError("zone map of " + info.name + " covers " +
                         std::to_string(live.pages()) + " pages, not " +
                         std::to_string(want.pages()));
  }
  for (std::uint64_t p = 0; p < want.pages(); ++p) {
    for (int c = 0; c < info.schema.num_columns(); ++c) {
      const int slot = want.TrackedSlot(c);
      if (slot < 0) continue;
      const storage::ZoneMap::Range& got = live.SlotRange(p, slot);
      const storage::ZoneMap::Range& rows = want.SlotRange(p, slot);
      if (got == rows) continue;
      return InternalError(
          "zone map of " + info.name + " page " + std::to_string(p) +
          " column " + std::to_string(c) + " holds [" +
          std::to_string(got.min) + ", " + std::to_string(got.max) +
          "], its rows span [" + std::to_string(rows.min) + ", " +
          std::to_string(rows.max) + "]");
    }
  }
  return Status::OK();
}

Status CheckZoneMapsMatchStorage(const engine::Database& db) {
  const ssd::SsdDevice* ssd = db.ssd();
  if (ssd == nullptr) return Status::OK();
  for (const std::string& table : db.zone_mapped_tables()) {
    SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                              db.catalog().GetTable(table));
    if (db.buffer_pool().HasDirtyInRange(info->first_lpn,
                                         info->reserved_pages)) {
      continue;  // the pool, not the device, holds the newest images
    }
    SMARTSSD_ASSIGN_OR_RETURN(
        const storage::ZoneMap built,
        storage::ZoneMap::Build(
            *info,
            [&](std::uint64_t p) -> Result<std::span<const std::byte>> {
              return ssd->ViewPage(info->first_lpn + p);
            }));
    SMARTSSD_RETURN_IF_ERROR(
        CheckZoneMapEquals(*info, *db.zone_map(table), built));
  }
  return Status::OK();
}

Status CheckDatabaseInvariants(const engine::Database& db) {
  SMARTSSD_RETURN_IF_ERROR(CheckNoDeviceDramLeak(db));
  return CheckBreakerSanity(db.circuit_breaker());
}

Status CheckFleetInvariants(const engine::Fleet& fleet) {
  for (int d = 0; d < fleet.devices(); ++d) {
    const engine::Database& db = fleet.device(d);
    if (Status s = CheckDatabaseInvariants(db); !s.ok()) {
      return InternalError("fleet device " + std::to_string(d) + ": " +
                           std::string(s.message()));
    }
    // The runtime's own leak detector (armed whenever the live-session
    // count returns to zero) must agree — it also catches abandoned
    // sessions that failed to hand their grants back.
    const smart::SmartSsdRuntime* runtime = db.runtime();
    if (runtime != nullptr) {
      if (runtime->session_leak_detected()) {
        return InternalError("fleet device " + std::to_string(d) +
                             ": session grants leaked");
      }
      if (runtime->active_sessions() != 0) {
        return InternalError(
            "fleet device " + std::to_string(d) + ": " +
            std::to_string(runtime->active_sessions()) +
            " session(s) still active after the fleet drained");
      }
    }
  }
  return Status::OK();
}

}  // namespace smartssd::check
