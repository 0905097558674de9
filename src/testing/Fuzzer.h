//===- testing/Fuzzer.h - Differential fuzzing driver -----------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seed loop behind `ppd fuzz`: generate a program per seed, run the
/// full oracle matrix (DiffOracles.h), record every divergence, and
/// optionally shrink the first with the delta-debugging minimizer. One
/// seed is one fully deterministic test case — program text, scheduling
/// seed, quantum, and process inputs all derive from it — so a failure
/// report is reproducible from its seed alone.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_TESTING_FUZZER_H
#define PPD_TESTING_FUZZER_H

#include "testing/DiffOracles.h"
#include "testing/ProgramGen.h"

#include <functional>
#include <string>
#include <vector>

namespace ppd::testing {

struct FuzzOptions {
  uint64_t Runs = 100;
  uint64_t FirstSeed = 1;
  /// Shrink the first failing program before reporting it.
  bool Minimize = true;
  DiffConfig Diff;
  /// Runs the oracle matrix on one program; null = runDifferential with
  /// Diff. Tests substitute a stub that marks chosen programs divergent.
  std::function<DiffReport(const std::string &Source, uint64_t SchedSeed,
                           uint32_t Quantum)>
      Differential;
  /// Optional progress sink (one line per event); null = silent.
  std::function<void(const std::string &)> Log;
};

struct FuzzStats {
  uint64_t Runs = 0;
  uint64_t Completed = 0;
  uint64_t Deadlocks = 0;
  uint64_t Failures = 0; ///< runtime errors (division by zero, ...).
  uint64_t StepLimits = 0;
  uint64_t RacyRuns = 0;
  uint64_t TotalRaces = 0;
  uint64_t TotalIntervals = 0;
  uint64_t TotalSteps = 0;
  uint64_t ByProfile[6] = {};
};

/// One divergent seed.
struct FuzzDivergence {
  uint64_t Seed = 0;
  GenProfile Profile = GenProfile::Compute;
  std::string Oracle;
};

struct FuzzResult {
  FuzzStats Stats;
  /// Every divergence found, in seed order.
  std::vector<FuzzDivergence> Divergences;
  /// First divergence, if any.
  bool Failed = false;
  uint64_t FailingSeed = 0;
  GenProfile FailingProfile = GenProfile::Compute;
  DiffReport Report;
  std::string ReproSource;     ///< minimized when requested.
  std::string OriginalSource;  ///< the unminimized generated program.
  unsigned ReproStatements = 0;
  unsigned MinimizerCalls = 0;
};

/// Runs the differential fuzzing loop over every seed of [FirstSeed,
/// FirstSeed + Runs), recording each divergence. Only the first divergence
/// is minimized and reported in full.
FuzzResult runFuzz(const FuzzOptions &Options);

/// Human-readable run summary (outcome histogram, race/interval totals,
/// and the failure report when one was found).
std::string summarizeFuzz(const FuzzResult &Result);

} // namespace ppd::testing

#endif // PPD_TESTING_FUZZER_H
