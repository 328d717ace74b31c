#include "obs/trace.h"

#include <algorithm>

namespace smartssd::obs {

Arg Arg::Int(std::string_view key, std::int64_t value) {
  Arg arg;
  arg.key = std::string(key);
  arg.kind = Kind::kInt;
  arg.i = value;
  return arg;
}

Arg Arg::Uint(std::string_view key, std::uint64_t value) {
  Arg arg;
  arg.key = std::string(key);
  arg.kind = Kind::kUint;
  arg.u = value;
  return arg;
}

Arg Arg::Double(std::string_view key, double value) {
  Arg arg;
  arg.key = std::string(key);
  arg.kind = Kind::kDouble;
  arg.d = value;
  return arg;
}

Arg Arg::Str(std::string_view key, std::string_view value) {
  Arg arg;
  arg.key = std::string(key);
  arg.kind = Kind::kString;
  arg.s = std::string(value);
  return arg;
}

TrackId Tracer::RegisterTrack(std::string_view process,
                              std::string_view thread) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].process == process && tracks_[i].thread == thread) {
      return static_cast<TrackId>(i);
    }
  }
  Track track;
  track.process = std::string(process);
  track.thread = std::string(thread);
  std::uint32_t pid = 0;
  bool found = false;
  std::uint32_t next_pid = 0;
  std::uint32_t tid = 0;
  for (const Track& t : tracks_) {
    next_pid = std::max(next_pid, t.pid + 1);
    if (t.process == process) {
      found = true;
      pid = t.pid;
      tid = std::max(tid, t.tid + 1);
    }
  }
  track.pid = found ? pid : next_pid;
  track.tid = tid;
  tracks_.push_back(std::move(track));
  return static_cast<TrackId>(tracks_.size() - 1);
}

SpanId Tracer::Complete(TrackId track, std::string_view name,
                        std::string_view category, SimTime start,
                        SimTime end, std::vector<Arg> args) {
  SMARTSSD_CHECK_LT(track, tracks_.size());
  SMARTSSD_CHECK_LE(start, end);
  TraceEvent event;
  event.phase = TraceEvent::Phase::kSpan;
  event.track = track;
  event.id = next_span_id_++;
  event.parent = current_scope();
  event.name = std::string(name);
  event.category = std::string(category);
  event.start = start;
  event.end = end;
  event.args = std::move(args);
  Observe(track, end);
  events_.push_back(std::move(event));
  return events_.back().id;
}

SpanId Tracer::Begin(TrackId track, std::string_view name,
                     std::string_view category, SimTime start,
                     std::vector<Arg> args) {
  SMARTSSD_CHECK_LT(track, tracks_.size());
  TraceEvent event;
  event.phase = TraceEvent::Phase::kSpan;
  event.track = track;
  event.id = next_span_id_++;
  event.parent = current_scope();
  event.name = std::string(name);
  event.category = std::string(category);
  event.start = start;
  event.end = TraceEvent::kOpen;
  event.args = std::move(args);
  Observe(track, start);
  events_.push_back(std::move(event));
  ++open_spans_;
  return events_.back().id;
}

void Tracer::End(SpanId id, SimTime end, std::vector<Arg> args) {
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->phase == TraceEvent::Phase::kSpan && it->id == id) {
      SMARTSSD_CHECK(it->open());  // double-End is a programmer error
      it->end = std::max(it->start, end);
      for (Arg& arg : args) it->args.push_back(std::move(arg));
      Observe(it->track, it->end);
      SMARTSSD_CHECK_GT(open_spans_, 0u);
      --open_spans_;
      return;
    }
  }
  SMARTSSD_CHECK(false);  // ending a span that was never begun
}

void Tracer::Instant(TrackId track, std::string_view name,
                     std::string_view category, SimTime at,
                     std::vector<Arg> args) {
  SMARTSSD_CHECK_LT(track, tracks_.size());
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.track = track;
  event.parent = current_scope();
  event.name = std::string(name);
  event.category = std::string(category);
  event.start = at;
  event.end = at;
  event.args = std::move(args);
  Observe(track, at);
  events_.push_back(std::move(event));
}

SimDuration Tracer::TrackBusy(TrackId track) const {
  SimDuration total = 0;
  for (const TraceEvent& event : events_) {
    if (event.track == track && event.phase == TraceEvent::Phase::kSpan &&
        !event.open()) {
      total += event.duration();
    }
  }
  return total;
}

SimTime Tracer::latest_time(std::string_view process) const {
  SimTime latest = 0;
  for (const Track& track : tracks_) {
    if (track.process == process) latest = std::max(latest, track.latest);
  }
  return latest;
}

void Tracer::Clear() {
  events_.clear();
  scopes_.clear();
  open_spans_ = 0;
  next_span_id_ = 1;
  for (Track& track : tracks_) track.latest = 0;
}

}  // namespace smartssd::obs
