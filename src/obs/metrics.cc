#include "obs/metrics.h"

#include <bit>
#include <cinttypes>
#include <cmath>

namespace smartssd::obs {
namespace {

// Bucket i covers [LowerBound(i), LowerBound(i + 1)).
std::uint64_t BucketLowerBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket == 1) return 1;
  return 1ull << (bucket - 1);
}

int BucketFor(std::uint64_t value) { return std::bit_width(value); }

void AtomicMin(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Record(std::uint64_t value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

std::uint64_t Histogram::min() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::Percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min());
  if (p >= 1.0) return static_cast<double>(max());
  // Rank of the requested quantile, 1-based, nearest-rank style.
  const std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket =
        buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      // Interpolate within [lo, hi) by the fraction of the bucket's
      // population below the rank, then clamp to the observed range so a
      // histogram of identical values is exact.
      const double lo = static_cast<double>(BucketLowerBound(b));
      const double hi = static_cast<double>(BucketLowerBound(b + 1));
      const double frac =
          (static_cast<double>(rank - seen) - 0.5) /
          static_cast<double>(in_bucket);
      double v = lo + (hi - lo) * frac;
      v = std::max(v, static_cast<double>(min()));
      v = std::min(v, static_cast<double>(max()));
      return v;
    }
    seen += in_bucket;
  }
  return static_cast<double>(max());
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name)))
             .first;
  }
  return it->second.get();
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const Counter* c = FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

HistogramSnapshot MetricsRegistry::SnapshotHistogram(
    std::string_view name) const {
  HistogramSnapshot snap;
  const Histogram* h = FindHistogram(name);
  if (h == nullptr || h->count() == 0) return snap;
  snap.count = h->count();
  snap.sum = h->sum();
  snap.min = h->min();
  snap.max = h->max();
  snap.p50 = h->p50();
  snap.p95 = h->p95();
  snap.p99 = h->p99();
  return snap;
}

void MetricsRegistry::PrintText(std::FILE* out) const {
  for (const auto& [name, c] : counters_) {
    std::fprintf(out, "counter %s %" PRIu64 "\n", name.c_str(), c->value());
  }
  for (const auto& [name, g] : gauges_) {
    std::fprintf(out, "gauge %s %" PRId64 "\n", name.c_str(), g->value());
  }
  for (const auto& [name, h] : histograms_) {
    std::fprintf(out,
                 "histogram %s count=%" PRIu64 " sum=%" PRIu64
                 " min=%" PRIu64 " max=%" PRIu64 " p50=%" PRIu64
                 " p95=%" PRIu64 " p99=%" PRIu64 "\n",
                 name.c_str(), h->count(), h->sum(), h->min(), h->max(),
                 static_cast<std::uint64_t>(std::llround(h->p50())),
                 static_cast<std::uint64_t>(std::llround(h->p95())),
                 static_cast<std::uint64_t>(std::llround(h->p99())));
  }
}

void MetricsRegistry::ResetAll() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace smartssd::obs
