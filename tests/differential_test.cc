// Differential correctness fuzz: seeded random query specs run through
// every execution configuration — host scan, Smart SSD pushdown over
// NSM and PAX (with and without zone maps), fault-injected pushdown
// with degraded fallback, memory-constrained hybrid joins under 2-pass
// and 3-pass spill budgets (results AND OpCounts against the
// unconstrained reference), and fleet scatter-gather (uniform 1-, 3-
// and 4-device and heterogeneous 2-device shapes, with rotating
// single-device faults and a breaker-open re-dispatch variant) —
// asserting byte-identical results plus structural invariants. A
// failure prints the generated spec, a minimized spec, and the one-line
// check::ReplaySpec(...) reproducer; pin a found bug by adding that
// line as a regression test below.
//
// Scale: 25 seed groups x specs-per-seed (default 20) = 500 specs.
// Override the per-seed count with SMARTSSD_DIFF_SPECS_PER_SEED.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "check/differential.h"
#include "check/spec_gen.h"
#include "check/spec_print.h"
#include "check/table_gen.h"
#include "exec/query_spec.h"
#include "expr/kernel_isa.h"

namespace smartssd {
namespace {

check::HarnessOptions FuzzOptions() {
  check::HarnessOptions options;
  if (const char* env = std::getenv("SMARTSSD_DIFF_SPECS_PER_SEED")) {
    const int n = std::atoi(env);
    if (n > 0) options.specs_per_seed = n;
  }
  return options;
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, AllConfigurationsAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const check::HarnessReport report =
      check::RunDifferentialSeed(seed, FuzzOptions());
  EXPECT_EQ(report.specs_run, FuzzOptions().specs_per_seed);
  EXPECT_GT(report.executions, report.specs_run);  // matrix actually ran
  // Faulted configurations must have actually exercised the degraded
  // path, not silently no-oped. (kGetStall recovers in-session, so not
  // every faulted run falls back — but across a seed group some must.)
  EXPECT_GT(report.fallbacks, 0) << report.Summary();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(0, 25));

// --- Replay entry point -------------------------------------------------
// A fuzz failure prints "check::ReplaySpec(seed, index)". Dropping that
// line here pins the shrunken case forever. The two below double as
// living documentation of the workflow (they pass today).

TEST(DifferentialReplay, SingleSpecReplaysDeterministically) {
  const check::HarnessReport first = check::ReplaySpec(3, 7);
  const check::HarnessReport second = check::ReplaySpec(3, 7);
  EXPECT_TRUE(first.ok()) << first.Summary();
  EXPECT_EQ(first.specs_run, 1);
  EXPECT_EQ(first.executions, second.executions);
  EXPECT_EQ(first.failures.size(), second.failures.size());
}

TEST(DifferentialReplay, GeneratorIsPurePerIndex) {
  // Spec i must not depend on specs 0..i-1 — that is what makes a
  // single-index replay equivalent to the failing run inside the sweep.
  check::SpecGenConfig gen;
  gen.tables.seed = 11;
  const exec::QuerySpec direct = check::GenerateSpec(11, 5, gen);
  check::GenerateSpec(11, 0, gen);  // unrelated draws change nothing
  check::GenerateSpec(11, 1, gen);
  const exec::QuerySpec again = check::GenerateSpec(11, 5, gen);
  EXPECT_EQ(check::SpecToString(direct), check::SpecToString(again));
}

TEST(DifferentialReplay, FaultsOffStillCoversTheMatrix) {
  check::HarnessOptions options;
  options.with_faults = false;
  options.specs_per_seed = 2;
  const check::HarnessReport report = check::RunDifferentialSeed(1, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  // ref (scalar + vectorized twin, plus a scalar-ISA re-run of the twin
  // on machines whose best kernel ISA uses SIMD lanes) + 8 single
  // configs (incl. the two hybrid-join spill budgets and the NSM and
  // PAX adaptive-placement configs) + 4 fleet configs + 2
  // write-path GC configs per spec.
  const int isa_axis =
      expr::DetectKernelIsa() != expr::KernelIsa::kScalarIsa ? 1 : 0;
  EXPECT_EQ(report.executions, 2 * (16 + isa_axis));
}

TEST(DifferentialReplay, WritePhaseOffShrinksTheMatrix) {
  check::HarnessOptions options;
  options.with_faults = false;
  options.with_write_phase = false;
  options.specs_per_seed = 2;
  const check::HarnessReport report = check::RunDifferentialSeed(1, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  const int isa_axis =
      expr::DetectKernelIsa() != expr::KernelIsa::kScalarIsa ? 1 : 0;
  EXPECT_EQ(report.executions, 2 * (14 + isa_axis));
}

}  // namespace
}  // namespace smartssd
