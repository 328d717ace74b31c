#ifndef SMARTSSD_ENGINE_CIRCUIT_BREAKER_H_
#define SMARTSSD_ENGINE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <string_view>

#include "common/units.h"
#include "obs/trace.h"

namespace smartssd::engine {

struct CircuitBreakerConfig {
  // Consecutive pushdown failures before the breaker opens and the
  // planner routes around the device.
  std::uint32_t failure_threshold = 3;
  // How long (virtual time) an open breaker keeps the device out of the
  // plan space before the next query is allowed to probe it again.
  SimDuration cooldown = 500 * kMillisecond;
};

// Per-device circuit breaker over the pushdown path. A device that keeps
// failing sessions (resets, stalls, transfer errors) wastes the whole
// failed-session latency on every query before the fallback kicks in;
// after `failure_threshold` consecutive failures the breaker opens and
// the planner sends queries straight to the host path. Once `cooldown`
// virtual time has passed, the breaker goes half-open and admits exactly
// one pushdown as a probe — co-running queries keep bypassing while the
// probe is in flight, so a dead device eats one failed session per
// cooldown, not one per concurrent query. The probe's success closes the
// breaker; its failure re-opens it for a further cooldown.
class DeviceCircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  DeviceCircuitBreaker() = default;
  explicit DeviceCircuitBreaker(const CircuitBreakerConfig& config)
      : config_(config) {}

  // `reason` is the stable failure token (see FallbackReasonToken),
  // attached to the trace instant.
  void RecordFailure(SimTime now, std::string_view reason = {}) {
    ++total_failures_;
    ++consecutive_failures_;
    if (tracer_ != nullptr) {
      tracer_->Instant(track_, "pushdown failure", "breaker", now,
                       {obs::Arg::Str("reason", reason),
                        obs::Arg::Uint("consecutive",
                                       consecutive_failures_)});
    }
    if (state_ != State::kClosed ||
        consecutive_failures_ >= config_.failure_threshold) {
      // A failed half-open probe re-opens the same outage, so only a
      // closed->open transition counts as a new trip.
      if (state_ == State::kClosed) ++trips_;
      state_ = State::kOpen;
      probe_in_flight_ = false;
      retry_after_ = now + config_.cooldown;
      if (tracer_ != nullptr) {
        tracer_->Instant(track_, "breaker open", "breaker", now,
                         {obs::Arg::Uint("retry_after", retry_after_)});
      }
    }
  }

  void RecordSuccess(SimTime now) {
    if (tracer_ != nullptr && state_ != State::kClosed) {
      tracer_->Instant(track_, "breaker close", "breaker", now);
    }
    consecutive_failures_ = 0;
    state_ = State::kClosed;
    probe_in_flight_ = false;
  }

  // Records state transitions as instants on a "breaker" lane under
  // `process`. nullptr detaches.
  void AttachTracer(obs::Tracer* tracer, std::string_view process) {
    tracer_ = tracer;
    if (tracer_ != nullptr) {
      track_ = tracer_->RegisterTrack(process, "breaker");
    }
  }

  // True while the caller should route around the device. Once the
  // cooldown has elapsed this admits exactly ONE caller (returning
  // false) as the half-open probe; every other caller keeps bypassing
  // until that probe's RecordSuccess/RecordFailure lands. If a probe
  // never reports back within a further cooldown (e.g. its query died
  // of a non-device error), the next caller is admitted in its place.
  bool ShouldBypass(SimTime now) {
    switch (state_) {
      case State::kClosed:
        return false;
      case State::kOpen:
        if (now < retry_after_) return true;
        AdmitProbe(now);
        return false;
      case State::kHalfOpen:
        if (probe_in_flight_ && now < probe_deadline_) return true;
        AdmitProbe(now);
        return false;
    }
    return false;
  }

  bool open() const { return state_ != State::kClosed; }
  State state() const { return state_; }
  bool probe_in_flight() const { return probe_in_flight_; }
  std::uint32_t consecutive_failures() const {
    return consecutive_failures_;
  }
  std::uint64_t total_failures() const { return total_failures_; }
  std::uint64_t trips() const { return trips_; }
  const CircuitBreakerConfig& config() const { return config_; }

  void Reset() {
    state_ = State::kClosed;
    probe_in_flight_ = false;
    consecutive_failures_ = 0;
    retry_after_ = 0;
    probe_deadline_ = 0;
  }

 private:
  void AdmitProbe(SimTime now) {
    const bool was_open = state_ == State::kOpen;
    state_ = State::kHalfOpen;
    probe_in_flight_ = true;
    probe_deadline_ = now + config_.cooldown;
    if (tracer_ != nullptr && was_open) {
      tracer_->Instant(track_, "breaker half-open", "breaker", now);
    }
  }

  CircuitBreakerConfig config_;
  State state_ = State::kClosed;
  bool probe_in_flight_ = false;
  std::uint32_t consecutive_failures_ = 0;
  std::uint64_t total_failures_ = 0;
  std::uint64_t trips_ = 0;
  SimTime retry_after_ = 0;
  SimTime probe_deadline_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
};

inline const char* BreakerStateName(DeviceCircuitBreaker::State state) {
  switch (state) {
    case DeviceCircuitBreaker::State::kClosed:
      return "closed";
    case DeviceCircuitBreaker::State::kOpen:
      return "open";
    case DeviceCircuitBreaker::State::kHalfOpen:
      return "half-open";
  }
  return "?";
}

}  // namespace smartssd::engine

#endif  // SMARTSSD_ENGINE_CIRCUIT_BREAKER_H_
