// perfbench: runs one benchmark workload in this process and prints its
// metrics. run.py builds this binary and is the command to use:
//
//   perfbench --workload olap_open|ingest_scan|diff_fuzz --seed N
//             --seconds S --trace 0|1 [--small] [--untraced-s-per-op X]
//             [--trace-out PATH]
//
// Everything goes to stdout: provenance, the workload's own report,
// every metric with its unit and clock, and as the last line one JSON
// object with the metrics BENCHMARK.json names (end-to-end untraced,
// per-layer traced).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "expr/kernel_isa.h"

using namespace smartssd;
using namespace smartssd::perfbench;

namespace {

// The end-to-end metrics the final JSON line carries (BENCHMARK.json's
// end_to_end list): the ones every workload measures on the host clock.
const char* const kGatedEndToEnd[] = {"setup_s", "host_ops_per_s",
                                      "peak_rss_mb"};

// Every end-to-end metric; the report names those a workload does not
// define, so each run lists all of them with unit and clock.
struct EndToEndName {
  const char* name;
  const char* unit;
  const char* clock;
};
constexpr EndToEndName kEndToEnd[] = {
    {"setup_s", "s", "host"},
    {"host_ops_per_s", "1/s", "host"},
    {"peak_rss_mb", "MiB", "host"},
    {"vt_p50_s", "s", "virtual"},
    {"vt_p95_s", "s", "virtual"},
    {"vt_light_p50_s", "s", "virtual"},
    {"vt_light_p95_s", "s", "virtual"},
    {"vt_max_qps", "1/s", "virtual"},
    {"vt_ingest_p95_s", "s", "virtual"},
    {"write_amp", "ratio", "none"},
    {"fail_share", "ratio", "none"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "olap_open|ingest_scan|diff_fuzz --seed N --seconds S "
               "--trace 0|1 [--small] [--untraced-s-per-op X] "
               "[--trace-out PATH]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--untraced-s-per-op") {
      o.untraced_s_per_op = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(o.seconds >= 0)) Usage("--seconds must be >= 0");
  return o;
}

void PrintMetric(const std::string& name, const Metric& m) {
  std::printf("  %-34s %-22.17g %-6s [%s clock] %s\n", name.c_str(), m.value,
              m.unit.c_str(), m.clock.c_str(), m.note.c_str());
}

void PrintJsonMetric(bool first, const std::string& name, const Metric& m) {
  // Non-finite values are not JSON; a metric that has none is a bug the
  // run already reports as a failure.
  const double v = std::isfinite(m.value) ? m.value : 0;
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name.c_str(), v, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  if (options.trace) Spans().Enable();

  const char* revision = std::getenv("PERFBENCH_REVISION");
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.small ? " size=small" : "");
  std::printf("provenance: build=%s compiler=%s isa_detected=%s "
              "isa_active=%s hardware_threads=%u revision=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              expr::KernelIsaName(expr::DetectKernelIsa()),
              expr::KernelIsaName(expr::CurrentKernelIsa()),
              std::thread::hardware_concurrency(),
              revision != nullptr ? revision : "unknown");
  std::printf("clocks: host = steady_clock seconds of this process; "
              "virtual = the simulator's clock; none = counts and ratios\n");

  WorkloadResult result;
  if (options.workload == "olap_open") {
    result = RunOlapOpen(options);
  } else if (options.workload == "ingest_scan") {
    result = RunIngestScan(options);
  } else if (options.workload == "diff_fuzz") {
    result = RunDiffFuzz(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  result.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB", "host",
                                      "ru_maxrss of this process"};
  const double fail_share =
      result.attempted > 0
          ? static_cast<double>(result.failed) /
                static_cast<double>(result.attempted)
          : 1.0;
  result.end_to_end["fail_share"] = {
      fail_share, "ratio", "none",
      std::to_string(result.failed) + " of " +
          std::to_string(result.attempted) + " ops failed or wrong"};

  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("arrival_digest=%016llx\n",
              static_cast<unsigned long long>(result.arrival_digest));
  std::printf("measured_s_per_op=%.17g\n", result.measured_s_per_op);
  std::printf("end-to-end metrics:\n");
  for (const EndToEndName& e : kEndToEnd) {
    auto it = result.end_to_end.find(e.name);
    if (it != result.end_to_end.end()) {
      PrintMetric(e.name, it->second);
    } else {
      std::printf("  %-34s %-22s %-6s [%s clock] not defined on this "
                  "workload\n",
                  e.name, "n/a", e.unit, e.clock);
    }
  }
  if (options.trace) {
    if (options.untraced_s_per_op > 0 && result.measured_s_per_op > 0) {
      result.per_layer["obs.trace_overhead"] = {
          result.measured_s_per_op / options.untraced_s_per_op - 1, "ratio",
          "host", "traced / untraced host s per op, minus 1"};
    }
    FillMissingPerLayer(result.per_layer);
    std::printf("per-layer metrics:\n");
    for (const auto& [name, metric] : result.per_layer) {
      PrintMetric(name, metric);
    }
    std::printf("span self time:\n");
    for (const auto& [name, self] : Spans().SelfTimes()) {
      std::printf("  %-34s %10.4f s [host clock] in %d calls\n", name.c_str(),
                  self.seconds, self.count);
    }
    if (!options.trace_out.empty() &&
        !Spans().WriteChromeTrace(options.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
  }

  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: the workload attempted nothing\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  if (options.trace) {
    for (const auto& [name, metric] : result.per_layer) {
      PrintJsonMetric(first, name, metric);
      first = false;
    }
  } else {
    for (const char* name : kGatedEndToEnd) {
      PrintJsonMetric(first, name, result.end_to_end[name]);
      first = false;
    }
  }
  std::printf("}}\n");
  return 0;
}
