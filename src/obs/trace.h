#ifndef SMARTSSD_OBS_TRACE_H_
#define SMARTSSD_OBS_TRACE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/units.h"

namespace smartssd::obs {

// Span-based tracing on the *virtual* clock. Every shared resource in
// the simulator (a flash channel, the device DRAM bus, an embedded
// core, the host link, a host core) registers a track; every piece of
// work it serves is recorded as a span [virtual start, virtual end] on
// that track, and discrete happenings (an ECC retry, an injected fault,
// a fallback decision) are recorded as instant events. The result is
// the pipeline-saturation picture the paper argues from: which track is
// solid with spans is which stage bottlenecks the configuration.
//
// Tracing is opt-in and null by default: modules hold a `Tracer*` that
// is nullptr until something attaches one, and every record site is
// guarded by that pointer. The disabled path is one branch — no virtual
// time is read (times are passed in by the code that already computed
// them), nothing allocates, and no timing computation changes, so all
// reported virtual times are identical to the nanosecond with tracing
// on or off.

using SpanId = std::uint64_t;
using TrackId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

// Typed key/value argument attached to a span or instant event.
struct Arg {
  enum class Kind { kInt, kUint, kDouble, kString };

  std::string key;
  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  std::string s;

  static Arg Int(std::string_view key, std::int64_t value);
  static Arg Uint(std::string_view key, std::uint64_t value);
  static Arg Double(std::string_view key, double value);
  static Arg Str(std::string_view key, std::string_view value);
};

struct TraceEvent {
  enum class Phase { kSpan, kInstant };

  // Sentinel end time of a Begin()-opened span that has not ended yet.
  static constexpr SimTime kOpen = std::numeric_limits<SimTime>::max();

  Phase phase = Phase::kSpan;
  TrackId track = 0;
  SpanId id = kNoSpan;      // spans only; instants carry kNoSpan
  SpanId parent = kNoSpan;  // enclosing scope when the event was recorded
  std::string name;
  std::string category;
  SimTime start = 0;
  SimTime end = 0;
  std::vector<Arg> args;

  SimDuration duration() const { return end - start; }
  bool open() const { return phase == Phase::kSpan && end == kOpen; }
};

// One horizontal lane in the exported trace. `process` groups tracks
// into Chrome/Perfetto processes (one per simulated machine: the device,
// the host), `thread` names the lane within it.
struct Track {
  std::string process;
  std::string thread;
  std::uint32_t pid = 0;  // process index, in registration order
  std::uint32_t tid = 0;  // lane index within the process
  SimTime latest = 0;     // latest virtual time recorded on this lane
};

class Tracer {
 public:
  Tracer() = default;
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(Tracer);

  // Registers (or looks up — registration is idempotent per name pair)
  // the track for `thread` under `process`.
  TrackId RegisterTrack(std::string_view process, std::string_view thread);

  // Records a span whose start and end are both known. This is the
  // common case in the simulator: servers compute [start, completion]
  // in one step. Returns the span id (usable as a parent scope).
  SpanId Complete(TrackId track, std::string_view name,
                  std::string_view category, SimTime start, SimTime end,
                  std::vector<Arg> args = {});

  // Begin/End pair for spans whose end is not known up front (a query
  // that may fail mid-flight). End() adds `args` to the span's existing
  // ones. Ending an unknown or already-ended span is a programmer error.
  SpanId Begin(TrackId track, std::string_view name,
               std::string_view category, SimTime start,
               std::vector<Arg> args = {});
  void End(SpanId id, SimTime end, std::vector<Arg> args = {});

  // A point event (fault fired, retry burned, breaker tripped).
  void Instant(TrackId track, std::string_view name,
               std::string_view category, SimTime at,
               std::vector<Arg> args = {});

  // Scope stack for parent attribution: spans and instants recorded
  // while a scope is pushed carry its span id as `parent`. The simulator
  // is single-threaded, so one stack suffices.
  void PushScope(SpanId id) { scopes_.push_back(id); }
  void PopScope() {
    SMARTSSD_CHECK(!scopes_.empty());
    scopes_.pop_back();
  }
  SpanId current_scope() const {
    return scopes_.empty() ? kNoSpan : scopes_.back();
  }

  const std::vector<Track>& tracks() const { return tracks_; }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t open_spans() const { return open_spans_; }

  // Latest virtual time any record call saw on the lanes of `process`:
  // one simulated machine's high-water mark, which machines sharing the
  // tracer do not move. Used to close spans that die on an error path
  // with no better end time.
  SimTime latest_time(std::string_view process) const;

  // Sum of closed span durations on `track` — the span-derived
  // occupancy, which must agree with the server's own busy_time().
  SimDuration TrackBusy(TrackId track) const;

  // Drops all events (tracks and their ids survive, so attached modules
  // keep recording).
  void Clear();

 private:
  void Observe(TrackId track, SimTime t) {
    if (t == TraceEvent::kOpen) return;
    if (t > tracks_[track].latest) tracks_[track].latest = t;
  }

  std::vector<Track> tracks_;
  std::vector<TraceEvent> events_;
  std::vector<SpanId> scopes_;
  SpanId next_span_id_ = 1;
  std::size_t open_spans_ = 0;
};

// Scope attribution for resumable tasks. A span kept on the scope stack
// for its whole lifetime only works for strictly nested
// (run-to-completion) execution: two interleaved query tasks would pop
// each other's scopes. A task instead opens its span with Begin(),
// holds the id across steps, and brackets *each step* with a
// ScopeGuard — events recorded during the step are attributed to the
// task's span, the stack is balanced at every step boundary, and
// interleaved tasks never see each other's scopes. Null-tracer and
// kNoSpan guards are no-ops.
class ScopeGuard {
 public:
  ScopeGuard(Tracer* tracer, SpanId id)
      : tracer_(id != kNoSpan ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->PushScope(id);
  }
  ~ScopeGuard() {
    if (tracer_ != nullptr) tracer_->PopScope();
  }
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(ScopeGuard);

 private:
  Tracer* tracer_;
};

}  // namespace smartssd::obs

#endif  // SMARTSSD_OBS_TRACE_H_
