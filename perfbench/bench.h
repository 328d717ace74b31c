#ifndef SMARTSSD_PERFBENCH_BENCH_H_
#define SMARTSSD_PERFBENCH_BENCH_H_

// Shared pieces of the repository benchmark: command-line options, the
// host clock, the span recorder of the traced run, percentiles, the
// per-layer counter readout of a Database, and the result every workload
// hands back to main.cc for printing.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/metrics.h"
#include "exec/query_spec.h"

namespace smartssd::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  // Reduced sizes for the benchmark's own determinism test.
  bool small = false;
  // Host seconds per op of an untraced run of the same workload and
  // seed; the traced run turns it into obs.trace_overhead.
  double untraced_s_per_op = 0;
  std::string trace_out;  // where the traced run writes its spans
};

inline double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans around the benchmark's own calls into each layer's public
// functions, named "<layer>.<call>". Kept in memory, written once at
// exit. Recording is off in untraced runs, so a Scope then costs one
// branch.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_ = -1;
  };

  struct SelfTime {
    int count = 0;
    double seconds = 0;
  };

  void Enable() { enabled_ = true; }

  // Per span name: how many spans, and the sum of their durations minus
  // the part their child spans cover (each call's self time).
  std::map<std::string, SelfTime> SelfTimes() const;

  // Chrome trace-event JSON (complete events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

SpanRecorder& Spans();

// Nearest-rank percentile of an ascending sample; 0 when empty.
double Percentile(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);
// The host ops-per-second figure of a measured phase from the rates of
// its units: their lower quartile. On a shared 4-vCPU Xeon VM the host's
// speed rises in bursts, and the lower quartile repeated across runs
// where the median did not (ingest_scan, 8 runs of 30 s: 6 % against
// 21 % between quartiles); shifts lasting minutes still move both.
double SteadyRate(std::vector<double> unit_rates);

// One printed metric. `clock` is "host", "virtual" or "none" (counts
// and ratios that need no clock).
struct Metric {
  double value = 0;
  std::string unit;
  std::string clock;
  std::string note;  // sample count or definition, for the text report
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Every end-to-end metric the workload defines, by name.
  std::map<std::string, Metric> end_to_end;
  // Per-layer metrics, filled only by the traced run.
  std::map<std::string, Metric> per_layer;
  // Host seconds per op of the measured phase (for obs.trace_overhead).
  double measured_s_per_op = 0;
  // Digest of the op arrivals the seed produced (FNV-1a over Digest()).
  std::uint64_t arrival_digest = 0xcbf29ce484222325ull;
  // Lines of the workload's own report (rungs, checks).
  std::vector<std::string> report;
};

// The splitmix64 finalizer: a seeded, well-mixed 64-bit hash.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Folds `value` into an FNV-1a digest.
inline void Digest(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest = (digest ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
}

// Records one failed check, keeping the first few messages.
void NoteFailure(WorkloadResult& result, const std::string& what);

// Counters read from one Database at the end of a measured pass. Busy
// times come from Database::StageSnapshot(), never from QueryStats.
struct LayerTotals {
  std::uint64_t ops = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_evictions = 0;
  std::uint64_t flash_page_reads = 0;
  std::uint64_t ecc_retries = 0;
  std::uint64_t sessions = 0;
  std::uint64_t gets = 0;
  int max_active_sessions = 0;
  std::uint64_t tuples = 0;
  std::uint64_t host_cycles = 0;
  std::uint64_t embedded_cycles = 0;
  std::uint64_t host_link_bytes = 0;
  std::uint64_t device_ops = 0;
  std::uint64_t split_ops = 0;
  engine::StageBreakdown busy;
  SimDuration span = 0;  // virtual span the busy times accrued over

  // Adds one finished query's QueryStats.
  void AddQuery(const engine::QueryStats& stats);
  // Adds the database's instrument values and busy times; call once per
  // cold pass (ResetForColdRun and metrics().ResetAll() zero them).
  void AddDatabase(const engine::Database& db, SimDuration pass_span);
  // Writes the bufferpool, ssd, flash, ftl, smart and exec metrics
  // (non-const: SsdDevice::ftl() is).
  void Emit(engine::Database& db, std::map<std::string, Metric>& out) const;
};

// One cold solo run of `spec` on each path, [0] host and [1] device, and
// one through ExecuteAuto; a failed run is noted in `result`.
struct SoloProbe {
  double host_ms[2] = {0, 0};
  double vt_s[2] = {0, 0};
  bool regret = false;  // ExecuteAuto chose the slower path
};
SoloProbe ProbeSolo(engine::Database& db, const exec::QuerySpec& spec,
                    WorkloadResult& result);

// Median host milliseconds to construct and to destroy an empty
// Database with `options`, and a standalone paper-geometry SsdDevice.
void EmitLifecycleProbes(const engine::DatabaseOptions& options,
                         std::map<std::string, Metric>& out);

// Fills every per-layer name the benchmark defines that `out` lacks
// with 0, so each workload prints the whole list; spec.json says which
// layers each workload does not exercise.
void FillMissingPerLayer(std::map<std::string, Metric>& out);

// Peak resident set of this process, MiB.
double PeakRssMb();

WorkloadResult RunOlapOpen(const Options& options);
WorkloadResult RunIngestScan(const Options& options);
WorkloadResult RunDiffFuzz(const Options& options);

}  // namespace smartssd::perfbench

#endif  // SMARTSSD_PERFBENCH_BENCH_H_
