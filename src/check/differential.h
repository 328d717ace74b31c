#ifndef SMARTSSD_CHECK_DIFFERENTIAL_H_
#define SMARTSSD_CHECK_DIFFERENTIAL_H_

// The differential correctness harness: seeded random query specs run
// through every execution configuration the engine offers —
//
//   * host scan (NSM, no zone map): the unpruned ground truth,
//   * host and pushdown over NSM and PAX with zone maps,
//   * pushdown under tiny join memory budgets (12 KiB and 4 KiB), so
//     joins run the hybrid spill path with 2 and 3 passes — results
//     AND OpCounts must match the unconstrained reference exactly,
//   * the adaptive placement policy, which splits each eligible scan
//     across host and device and merges the partials: over NSM its
//     results AND OpCounts must equal the unpruned monolithic
//     reference; over PAX + zone map its rows must,
//   * Fleet scatter-gather (ExecuteOnFleet, pushdown) over uniform 1-,
//     3- and 4-device fleets and a heterogeneous 2-device PAX fleet,
//     plus a rotating fault on a rotating device and a breaker-open
//     re-dispatch,
//   * pushdown with an injected device fault (rotating fault kinds),
//     exercising retry, degraded host fallback, and the breaker —
//     including faults landing mid-spill,
//
// asserting byte-identical rows/aggregates against the ground truth
// plus structural invariants (trace span balance, monotone instants,
// no device-DRAM or spill-extent leaks, breaker-state sanity) after
// every execution.
//
// Determinism contract: RunDifferentialSeed(seed) is a pure function of
// (seed, options). Each spec within a seed is itself generated purely
// from (seed, index), so a failure is replayed by
// ReplaySpec(seed, index, options) — the one-line regression test a
// failure report prints.

#include <cstdint>
#include <string>
#include <vector>

#include "check/spec_gen.h"

namespace smartssd::check {

struct HarnessOptions {
  int specs_per_seed = 20;
  bool with_faults = true;
  // Write-phase axis: a small write-path database absorbs a
  // deterministic ingest/update batch before each odd-indexed spec, is
  // verified cell-exact against an in-memory oracle, and then runs the
  // spec on host and pushdown paths — both results must agree
  // byte-for-byte, whatever the garbage collector relocated underneath.
  bool with_write_phase = true;
  // Attempt component-dropping minimization of failing specs.
  bool minimize_failures = true;
  SpecGenConfig gen;
  // The pool is eagerly allocated per database and the harness holds
  // a dozen of them, so it runs with a deliberately small pool.
  std::uint64_t buffer_pool_pages = 192;
};

struct DifferentialFailure {
  std::uint64_t seed = 0;
  int spec_index = 0;
  std::string config;    // first configuration that diverged
  std::string message;   // what went wrong
  std::string spec_text; // the generated spec, as SpecToString
  std::string minimized_spec_text;  // after component dropping
  std::string replay;    // one-line reproducer
};

struct HarnessReport {
  std::uint64_t seed = 0;
  int specs_run = 0;
  int executions = 0;
  // Executions that survived an injected fault via degraded host
  // fallback — proof the fault matrix actually fired rather than
  // silently no-oping.
  int fallbacks = 0;
  std::vector<DifferentialFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

// Runs options.specs_per_seed specs for `seed` across the full
// configuration matrix.
HarnessReport RunDifferentialSeed(std::uint64_t seed,
                                  const HarnessOptions& options = {});

// Re-runs exactly one (seed, index) spec — the replay entry point.
HarnessReport ReplaySpec(std::uint64_t seed, int spec_index,
                         const HarnessOptions& options = {});

}  // namespace smartssd::check

#endif  // SMARTSSD_CHECK_DIFFERENTIAL_H_
