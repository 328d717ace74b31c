#ifndef SMARTSSD_BENCH_BENCH_UTIL_H_
#define SMARTSSD_BENCH_BENCH_UTIL_H_

// Shared helpers for the benches: failing fast on an error status, the
// printed table frame, wall-clock measurement, and the --json=<path>
// reporter whose rows the committed BENCH_*.json baselines hold.
// paper_figures regenerates every table and figure of the paper; the
// other benches each measure one workload or subsystem.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace smartssd::bench {

// Aborts the bench with a message if `result` is an error; otherwise
// returns the value. Benches are top-level tools, so failing fast with
// the status text is the right behaviour.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s)\n", paper_ref);
  std::printf("==============================================================\n");
}

inline void PrintRule() {
  std::printf("--------------------------------------------------------------\n");
}

// Escapes a string for embedding in a JSON string literal: quotes and
// backslashes get a backslash, control characters become \uXXXX (with
// the common short forms for \b \f \n \r \t).
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

// Wall-clock (steady_clock) measurement for benches that time the
// simulator's own kernels rather than virtual device time. Runs `fn`
// once to warm caches, then `repeats` more times and keeps the fastest
// run — the usual way to strip scheduler noise from a throughput
// number. Fewer than 5 timed runs leaves too much scheduler noise in a
// min-of-N number to trust a ratio between two configs, so `repeats`
// is clamped up to 5.
struct WallMeasurement {
  double seconds = 0;        // best single run
  double rows_per_sec = 0;   // rows / seconds
};

inline constexpr int kMinWallRepeats = 5;

template <typename Fn>
WallMeasurement MeasureWall(std::uint64_t rows, int repeats, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  if (repeats < kMinWallRepeats) repeats = kMinWallRepeats;
  fn();  // warmup
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    const double s = std::chrono::duration<double>(Clock::now() - start)
                         .count();
    if (r == 0 || s < best) best = s;
  }
  WallMeasurement m;
  m.seconds = best;
  m.rows_per_sec = best > 0 ? static_cast<double>(rows) / best : 0;
  return m;
}

// Machine-readable bench output, enabled by a `--json=<path>` argument,
// the only argument a bench takes: any other prints the usage and exits
// 2, so a mistyped flag cannot leave a committed baseline unregenerated.
// Write() emits a JSON array with one object per measured configuration:
//   {"bench": ..., "config": ..., "virtual_seconds": ...,
//    "paper_ratio": ..., "measured_ratio": ...}
// (wall-clock rows carry "wall_seconds" and "rows_per_sec" instead of
// "virtual_seconds") so successive runs can append to the repo's perf
// trajectory. Ratios
// are each bench's headline comparison (e.g. speedup over the baseline
// configuration); pass NAN where the paper gives no number — it is
// serialized as null. Without `--json=...` the reporter is inert, so the
// human-readable tables are unchanged.
class JsonReporter {
 public:
  JsonReporter(std::string bench_id, int argc, char** argv)
      : bench_id_(std::move(bench_id)) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      constexpr std::string_view kFlag = "--json=";
      if (!arg.starts_with(kFlag)) {
        std::fprintf(stderr, "usage: %s [--json=<path>]\n", argv[0]);
        std::exit(2);
      }
      path_ = std::string(arg.substr(kFlag.size()));
    }
  }

  bool enabled() const { return !path_.empty(); }

  // Build/run provenance (compiler, build type, kernel ISA, thread
  // count, ...). Serialized as a distinguished first array element
  // {"bench": ..., "metadata": {...}} so perf-trajectory tooling can
  // tell which toolchain and CPU features produced the numbers without
  // changing the per-row schema.
  void SetMetadata(std::vector<std::pair<std::string, std::string>> meta) {
    metadata_ = std::move(meta);
  }

  void Add(std::string_view config, double virtual_seconds,
           double paper_ratio, double measured_ratio) {
    if (!enabled()) return;
    rows_.push_back(Row{std::string(config), virtual_seconds, paper_ratio,
                        measured_ratio, NAN, {}});
  }

  // Robustness-aware variant: attaches a flat name->value counter map
  // serialized as an extra "counters" object (breaker trips,
  // re-dispatches, ...). Rows added without counters keep the existing
  // JSON schema.
  void AddWithCounters(
      std::string_view config, double virtual_seconds, double paper_ratio,
      double measured_ratio,
      std::vector<std::pair<std::string, double>> counters) {
    if (!enabled()) return;
    rows_.push_back(Row{std::string(config), virtual_seconds, paper_ratio,
                        measured_ratio, NAN, std::move(counters)});
  }

  // Wall-clock variant: serialized with "wall_seconds" in place of
  // "virtual_seconds", plus rows/sec. Only rows added through this
  // overload change shape, so virtual-time benches keep their schema.
  void AddWall(std::string_view config, double wall_seconds,
               double paper_ratio, double measured_ratio,
               double rows_per_sec) {
    if (!enabled()) return;
    rows_.push_back(Row{std::string(config), wall_seconds, paper_ratio,
                        measured_ratio, rows_per_sec, {}});
  }

  void Write() {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path_.c_str());
      std::exit(1);
    }
    std::fprintf(f, "[\n");
    if (!metadata_.empty()) {
      std::fprintf(f, "{\"bench\":\"%s\",\"metadata\":{",
                   JsonEscape(bench_id_).c_str());
      for (std::size_t m = 0; m < metadata_.size(); ++m) {
        std::fprintf(f, "%s\"%s\":\"%s\"", m > 0 ? "," : "",
                     JsonEscape(metadata_[m].first).c_str(),
                     JsonEscape(metadata_[m].second).c_str());
      }
      std::fprintf(f, "}}%s\n", rows_.empty() ? "" : ",");
    }
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      const bool wall = !std::isnan(row.rows_per_sec);
      std::fprintf(f,
                   "{\"bench\":\"%s\",\"config\":\"%s\","
                   "\"%s\":%.9g,\"paper_ratio\":",
                   JsonEscape(bench_id_).c_str(),
                   JsonEscape(row.config).c_str(),
                   wall ? "wall_seconds" : "virtual_seconds", row.seconds);
      WriteRatio(f, row.paper_ratio);
      std::fprintf(f, ",\"measured_ratio\":");
      WriteRatio(f, row.measured_ratio);
      if (wall) std::fprintf(f, ",\"rows_per_sec\":%.9g", row.rows_per_sec);
      if (!row.counters.empty()) {
        std::fprintf(f, ",\"counters\":{");
        for (std::size_t c = 0; c < row.counters.size(); ++c) {
          std::fprintf(f, "%s\"%s\":%.9g", c > 0 ? "," : "",
                       JsonEscape(row.counters[c].first).c_str(),
                       row.counters[c].second);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %zu json rows to %s\n", rows_.size(), path_.c_str());
  }

 private:
  struct Row {
    std::string config;
    double seconds;  // virtual time, or wall time on a wall-clock row
    double paper_ratio;
    double measured_ratio;
    double rows_per_sec;  // NAN = virtual-time row, field omitted
    std::vector<std::pair<std::string, double>> counters;
  };

  static void WriteRatio(std::FILE* f, double v) {
    if (std::isnan(v)) {
      std::fprintf(f, "null");
    } else {
      std::fprintf(f, "%.9g", v);
    }
  }

  std::string bench_id_;
  std::string path_;
  std::vector<std::pair<std::string, std::string>> metadata_;
  std::vector<Row> rows_;
};

}  // namespace smartssd::bench

#endif  // SMARTSSD_BENCH_BENCH_UTIL_H_
