#ifndef SMARTSSD_OBS_METRICS_H_
#define SMARTSSD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/macros.h"
#include "common/units.h"

namespace smartssd::obs {

// Named instruments for regression-trackable counters alongside the
// span tracer. Modules look an instrument up once (registration is
// idempotent and returns a stable pointer) and bump it lock-free on the
// hot path; nothing here reads or advances the virtual clock, so
// metrics never perturb simulated timing.

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(Counter);

  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(Gauge);

  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::int64_t> value_{0};
};

// Log-scale histogram for virtual durations (or any uint64): bucket i
// holds values of bit width i, i.e. [2^(i-1), 2^i), with bucket 0 for
// zero. Percentiles interpolate linearly inside the hit bucket and are
// clamped to the recorded [min, max], so a single-valued histogram
// reports that exact value at every percentile; in general the error is
// bounded by the bucket width (under 2x).
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(Histogram);

  void Record(std::uint64_t value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const;  // 0 when empty
  std::uint64_t max() const;

  // p in [0, 1]; returns 0 for an empty histogram.
  double Percentile(double p) const;
  double p50() const { return Percentile(0.50); }
  double p95() const { return Percentile(0.95); }
  double p99() const { return Percentile(0.99); }

  const std::string& name() const { return name_; }
  void Reset();

 private:
  std::string name_;
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

// Point-in-time summary of a histogram, cheap to copy and safe to hand
// to code (a benchmark harness reading a finished run) that must not
// mutate or even register instruments. All fields are zero for an absent
// or empty histogram.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

// Registry of named instruments. Lookup is registration: the first
// counter("x") creates it, every later call returns the same pointer,
// which stays valid for the registry's lifetime. Iteration order is the
// name order, so every export is deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  // Read-side lookups: never register, so a reader asking for a signal
  // that no module has emitted yet sees "absent" instead of minting an
  // empty instrument (which would perturb exports). Return nullptr when
  // the name is unknown.
  const Counter* FindCounter(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  // Value-level conveniences over the Find* lookups. CounterValue
  // returns 0 when the counter is absent; SnapshotHistogram returns an
  // all-zero snapshot when the histogram is absent or empty.
  std::uint64_t CounterValue(std::string_view name) const;
  HistogramSnapshot SnapshotHistogram(std::string_view name) const;

  // Flat export: one line ("name value" / histogram summary) per
  // instrument.
  void PrintText(std::FILE* out) const;

  // Zeroes every instrument (pointers stay valid).
  void ResetAll();

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_;
};

// Null-safe bump helpers for modules whose registry attachment is
// optional (a bare SsdDevice in a bench has none).
inline void BumpCounter(Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->Add(n);
}
inline void RecordHistogram(Histogram* histogram, std::uint64_t value) {
  if (histogram != nullptr) histogram->Record(value);
}

}  // namespace smartssd::obs

#endif  // SMARTSSD_OBS_METRICS_H_
