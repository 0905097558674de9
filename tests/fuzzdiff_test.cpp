//===- tests/fuzzdiff_test.cpp - Differential fuzzing harness tests -------===//
//
// Part of PPD test suite. Exercises the `ppd fuzz` machinery from
// src/testing/: the grammar-directed program generator (deterministic,
// always compilable), the differential oracle driver (a bounded smoke
// sweep that must stay divergence-free, plus minimized past findings),
// and the delta-debugging minimizer (drives an injected predicate to a
// small repro).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "testing/DiffOracles.h"
#include "testing/Fuzzer.h"
#include "testing/Minimizer.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <set>

using namespace ppd;
using namespace ppd::test;
using namespace ppd::testing;

namespace {

TEST(ProgramGenTest, SameSeedSameProgram) {
  for (uint64_t Seed : {1ull, 7ull, 19ull, 101ull}) {
    GenProgram A = generateProgram(Seed);
    GenProgram B = generateProgram(Seed);
    EXPECT_EQ(A.render(), B.render()) << "seed " << Seed;
    EXPECT_EQ(A.SchedSeed, B.SchedSeed);
    EXPECT_EQ(A.Quantum, B.Quantum);
    EXPECT_EQ(int(A.Profile), int(B.Profile));
  }
}

TEST(ProgramGenTest, EverySeedCompiles) {
  for (uint64_t Seed = 1; Seed != 120; ++Seed) {
    GenProgram Program = generateProgram(Seed);
    std::string Source = Program.render();
    DiagnosticEngine Diags;
    auto Prog = Compiler::compile(Source, CompileOptions(), Diags);
    ASSERT_TRUE(Prog != nullptr)
        << "seed " << Seed << ":\n" << Diags.str() << "\n" << Source;
  }
}

TEST(ProgramGenTest, AllProfilesReachable) {
  std::set<int> Seen;
  for (uint64_t Seed = 1; Seed != 30; ++Seed)
    Seen.insert(int(generateProgram(Seed).Profile));
  EXPECT_EQ(Seen.size(), 6u);
}

TEST(ProgramGenTest, SingleUnitRemovalsStayWellFormed) {
  // Unit-tree rendering guarantees every removal is *parse*-clean (no
  // dangling braces); deleting a still-referenced declaration may fail
  // semantic analysis, but then the compiler must answer with diagnostics
  // — that rendering is exactly what the minimizer's predicate feeds the
  // pipeline. Each mutant either compiles or names its undeclared symbol.
  GenProgram Program = generateProgram(5);
  std::vector<uint32_t> Removable = Program.removableUnits();
  ASSERT_FALSE(Removable.empty());
  unsigned StillCompile = 0;
  for (uint32_t Unit : Removable) {
    std::vector<bool> Removed(Program.Units.size(), false);
    Removed[Unit] = true;
    std::string Source = Program.render(&Removed);
    DiagnosticEngine Diags;
    auto Prog = Compiler::compile(Source, CompileOptions(), Diags);
    if (Prog != nullptr) {
      ++StillCompile;
      continue;
    }
    EXPECT_NE(Diags.str().find("error"), std::string::npos)
        << "unit " << Unit << " failed without a diagnostic:\n" << Source;
  }
  // Most units are plain statements whose removal is harmless; only the
  // handful of referenced declarations may fail semantically.
  EXPECT_GT(StillCompile * 2, unsigned(Removable.size()));
}

TEST(MinimizerTest, ShrinksToThePredicateCore) {
  // The "bug" is the presence of a P(s0) line: the minimizer must strip
  // everything else while keeping the predicate true at every step.
  GenProgram Program = generateProgram(2); // sync-heavy: has P/V traffic
  std::string Full = Program.render();
  ASSERT_NE(Full.find("P(s0)"), std::string::npos);
  // Compilability is part of the predicate, exactly as in the fuzzer
  // (runDifferential reports a non-compiling candidate under the
  // "compile" oracle, which never matches the divergence being chased).
  unsigned Calls = 0;
  MinimizeResult Min = minimizeProgram(Program, [&](const std::string &S) {
    ++Calls;
    if (S.find("P(s0)") == std::string::npos)
      return false;
    DiagnosticEngine Diags;
    return Compiler::compile(S, CompileOptions(), Diags) != nullptr;
  });
  EXPECT_NE(Min.Source.find("P(s0)"), std::string::npos);
  EXPECT_LT(Min.Statements, GenProgram::countStatements(Full));
  EXPECT_GT(Min.UnitsRemoved, 0u);
  EXPECT_EQ(Min.PredicateCalls, Calls);
  // The predicate held at every accepted step, so the result compiles.
  DiagnosticEngine Diags;
  EXPECT_TRUE(Compiler::compile(Min.Source, CompileOptions(), Diags) !=
              nullptr)
      << Diags.str() << "\n" << Min.Source;
}

TEST(MinimizerTest, MinimumIsOneWhenAnythingMatches) {
  GenProgram Program = generateProgram(3);
  MinimizeResult Min =
      minimizeProgram(Program, [](const std::string &) { return true; });
  // An always-true predicate lets the minimizer delete every removable
  // unit; only the fixed skeleton remains.
  std::vector<bool> AllRemoved(Program.Units.size(), false);
  for (uint32_t Unit : Program.removableUnits())
    AllRemoved[Unit] = true;
  EXPECT_EQ(Min.Source, Program.render(&AllRemoved));
}

/// Minimized `spec/trace` findings, each run with its seed's machine
/// parameters: a process the machine froze must not replay past where it
/// stopped — not into the statement after a preemption (seed 26), not
/// out of a callee that logged its exit but never returned (440), not on
/// through a cut statement into the rest of its function (1904).
TEST(FuzzRegressionTest, FrozenProcessesReplayOnlyWhatRan) {
  struct Case {
    uint64_t Seed;
    const char *Source;
  };
  const Case Cases[] = {
      {26, R"(shared int g0;
shared int g1;
shared int g2;
shared int ga[4];
int p0;
sem join;
func worker0(int a) {
  a = (-(9 % g0));
  V(join);
}
func worker1(int a) {
  V(join);
}
func main() {
  spawn worker0(2);
  spawn worker1(0);
  int t14 = g2;
  P(join);
  P(join);
  print(g0);
  print((g1 + g2));
  print(p0);
  print((((ga[0] + ga[1]) + ga[2]) + ga[3]));
}
)"},
      {440, R"(shared int g0;
shared int g1;
shared int g2;
shared int ga[4];
int p0;
func helper0(int a, int b) {
  if ((a - abs(p0)) < (((5 * a) > (-ga[abs(b) % 4])) + abs(ga[abs(b) % 4]))) {
  }
  int t1 = b;
  return (a + b);
}
sem s0 = 1;
sem join;
func worker0(int a) {
  print((ga[abs(ga[abs(p0) % 4]) % 4] / (abs(g2) % 7 + 1)));
  P(s0);
  V(s0);
  V(join);
}
func worker1(int a) {
  P(s0);
  int w8 = 0;
  while (w8 < 4) {
    int t9 = ((ga[abs(ga[abs(ga[20]) % 4]) % 4] > g0) + 20);
    w8 = w8 + 1;
  }
  V(s0);
  V(join);
}
func main() {
  spawn worker0(5);
  spawn worker1(5);
  if (((13 * 12) >= helper0(g0, ga[abs(ga[abs(g1) % 4]) % 4])) && ((p0 + g2) <= ((ga[p0] != g1) + g0))) {
  } else {
    ga[abs((20 + p0)) % 4] = 12;
  }
  P(join);
  P(join);
  print(g0);
  print((g1 + g2));
  print(p0);
  print((((ga[0] + ga[1]) + ga[2]) + ga[3]));
}
)"},
      {1904, R"(shared int g0;
shared int g1;
shared int g2;
shared int ga[4];
int p0;
sem join;
func worker0(int a) {
  V(join);
}
func worker1(int a) {
  V(join);
}
func worker2(int a) {
  int t12 = g2;
  if ((input() == ((ga[abs(g0) % 4] < p0) + g0)) || (t12 == (ga[abs(g2) % 4] * 19))) {
  }
  V(join);
}
func main() {
  spawn worker0(0);
  spawn worker1(0);
  spawn worker2(0);
  if ((g2 % (abs(g2) % 7 + 1)) < (19 / ga[abs(p0) % 4])) {
  }
  P(join);
  P(join);
  P(join);
  print(g0);
  print((g1 + g2));
  print(p0);
  print((((ga[0] + ga[1]) + ga[2]) + ga[3]));
}
)"},
  };
  DiffConfig Config;
  Config.CheckServer = false;
  Config.CheckFlowback = false;
  Config.CheckPaged = false;
  Config.CheckStream = false;
  for (const Case &C : Cases) {
    GenProgram Program = generateProgram(C.Seed);
    DiffReport Report =
        runDifferential(C.Source, Program.SchedSeed, Program.Quantum, Config);
    EXPECT_TRUE(Report.RaceFree) << "seed " << C.Seed;
    EXPECT_FALSE(Report.Divergent)
        << "seed " << C.Seed << ": " << Report.Oracle << ": " << Report.Detail;
  }
}

/// A sweep runs every seed past a divergence, lists each one in seed
/// order, and reports (and minimizes) only the first in full.
TEST(FuzzLoopTest, RecordsEveryDivergenceAndRunsEverySeed) {
  const std::string Second = generateProgram(2).render();
  const std::string Fifth = generateProgram(5).render();
  std::vector<std::string> Logged;
  FuzzOptions Options;
  Options.FirstSeed = 1;
  Options.Runs = 6;
  Options.Log = [&](const std::string &Line) { Logged.push_back(Line); };
  unsigned Calls = 0;
  Options.Differential = [&](const std::string &Source, uint64_t, uint32_t) {
    ++Calls;
    DiffReport R;
    R.Divergent = Source == Second || Source == Fifth;
    R.Oracle = Source == Second ? "stub/first" : "stub/second";
    return R;
  };

  FuzzResult Result = runFuzz(Options);
  EXPECT_EQ(Result.Stats.Runs, 6u);
  EXPECT_EQ(Result.Stats.Completed, 6u);
  ASSERT_EQ(Result.Divergences.size(), 2u);
  EXPECT_EQ(Result.Divergences[0].Seed, 2u);
  EXPECT_EQ(Result.Divergences[0].Oracle, "stub/first");
  EXPECT_EQ(Result.Divergences[1].Seed, 5u);
  EXPECT_EQ(Result.Divergences[1].Oracle, "stub/second");
  EXPECT_TRUE(Result.Failed);
  EXPECT_EQ(Result.FailingSeed, 2u);
  EXPECT_EQ(Result.Report.Oracle, "stub/first");
  EXPECT_EQ(Result.OriginalSource, Second);
  // Only the first divergence went through the minimizer.
  EXPECT_GT(Result.MinimizerCalls, 0u);
  EXPECT_EQ(Calls, 6u + Result.MinimizerCalls);
  ASSERT_FALSE(Logged.empty());
  EXPECT_EQ(Logged.back(), "6 runs, 2 divergent");

  const std::string Summary = summarizeFuzz(Result);
  EXPECT_NE(Summary.find("2 divergences:\n  seed 2 ["), std::string::npos)
      << Summary;
  EXPECT_NE(Summary.find("  seed 5 ["), std::string::npos) << Summary;
  EXPECT_NE(Summary.find("DIVERGENCE at seed 2 ["), std::string::npos)
      << Summary;
}

/// The PR-gate differential smoke: a bounded sweep that must be
/// divergence-free. Split into shards so ctest runs them in parallel.
class FuzzDiffSmoke : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDiffSmoke, TwentyFiveSeedsNoDivergence) {
  FuzzOptions Options;
  Options.FirstSeed = 1 + GetParam() * 25;
  Options.Runs = 25;
  Options.Minimize = false; // a failure here reports seed + oracle; the
                            // developer reruns `ppd fuzz --minimize`
  FuzzResult Result = runFuzz(Options);
  EXPECT_FALSE(Result.Failed) << summarizeFuzz(Result);
  EXPECT_EQ(Result.Stats.Runs, 25u);
}

INSTANTIATE_TEST_SUITE_P(Shards, FuzzDiffSmoke,
                         ::testing::Range(uint64_t(0), uint64_t(4)));

} // namespace
