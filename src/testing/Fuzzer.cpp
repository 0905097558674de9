//===- testing/Fuzzer.cpp -------------------------------------------------===//
//
// Part of PPD. See Fuzzer.h.
//
//===----------------------------------------------------------------------===//

#include "testing/Fuzzer.h"

#include "testing/Minimizer.h"
#include "vm/Machine.h"

#include <sstream>

using namespace ppd;
using namespace ppd::testing;

namespace ppd::testing {

FuzzResult runFuzz(const FuzzOptions &Options) {
  FuzzResult Result;
  auto Note = [&](const std::string &Line) {
    if (Options.Log)
      Options.Log(Line);
  };
  auto Differential = [&](const std::string &Source, uint64_t SchedSeed,
                          uint32_t Quantum) {
    return Options.Differential
               ? Options.Differential(Source, SchedSeed, Quantum)
               : runDifferential(Source, SchedSeed, Quantum, Options.Diff);
  };

  for (uint64_t I = 0; I != Options.Runs; ++I) {
    const uint64_t Seed = Options.FirstSeed + I;
    GenProgram Program = generateProgram(Seed);
    std::string Source = Program.render();

    DiffReport Report = Differential(Source, Program.SchedSeed,
                                     Program.Quantum);
    ++Result.Stats.Runs;
    ++Result.Stats.ByProfile[unsigned(Program.Profile) % 6];
    switch (RunResult::Status(Report.Outcome)) {
    case RunResult::Status::Completed:
      ++Result.Stats.Completed;
      break;
    case RunResult::Status::Deadlock:
      ++Result.Stats.Deadlocks;
      break;
    case RunResult::Status::Failed:
      ++Result.Stats.Failures;
      break;
    case RunResult::Status::StepLimit:
      ++Result.Stats.StepLimits;
      break;
    case RunResult::Status::Breakpoint:
      break;
    }
    if (!Report.RaceFree)
      ++Result.Stats.RacyRuns;
    Result.Stats.TotalRaces += Report.Races;
    Result.Stats.TotalIntervals += Report.Intervals;
    Result.Stats.TotalSteps += Report.Steps;

    if (!Report.Divergent) {
      if ((I + 1) % 50 == 0)
        Note("  ... " + std::to_string(I + 1) + "/" +
             std::to_string(Options.Runs) + " seeds clean");
      continue;
    }

    Result.Divergences.push_back({Seed, Program.Profile, Report.Oracle});
    Note("seed " + std::to_string(Seed) + " [" +
         genProfileName(Program.Profile) + "]: DIVERGENCE in " +
         Report.Oracle);
    if (Result.Failed)
      continue; // a later divergence is recorded only.

    Result.Failed = true;
    Result.FailingSeed = Seed;
    Result.FailingProfile = Program.Profile;
    Result.Report = Report;
    Result.OriginalSource = Source;
    Result.ReproSource = Source;
    Result.ReproStatements = GenProgram::countStatements(Source);

    if (Options.Minimize) {
      const std::string WantOracle = Report.Oracle;
      MinimizeResult Min = minimizeProgram(
          Program, [&](const std::string &Candidate) {
            DiffReport R =
                Differential(Candidate, Program.SchedSeed, Program.Quantum);
            return R.Divergent && R.Oracle == WantOracle;
          });
      Result.ReproSource = Min.Source;
      Result.ReproStatements = Min.Statements;
      Result.MinimizerCalls = Min.PredicateCalls;
      Note("  minimized to " + std::to_string(Min.Statements) +
           " statements (" + std::to_string(Min.PredicateCalls) +
           " predicate calls)");
    }
  }
  Note(std::to_string(Result.Stats.Runs) + " runs, " +
       std::to_string(Result.Divergences.size()) + " divergent");
  return Result;
}

std::string summarizeFuzz(const FuzzResult &Result) {
  const FuzzStats &S = Result.Stats;
  std::ostringstream Os;
  Os << S.Runs << " runs: " << S.Completed << " completed, " << S.Deadlocks
     << " deadlocked, " << S.Failures << " failed, " << S.StepLimits
     << " hit the step limit\n";
  Os << "profiles:";
  for (unsigned P = 0; P != 6; ++P)
    Os << " " << genProfileName(GenProfile(P)) << "=" << S.ByProfile[P];
  Os << "\n";
  Os << S.RacyRuns << " racy runs (" << S.TotalRaces << " races), "
     << S.TotalIntervals << " log intervals replayed, " << S.TotalSteps
     << " VM steps\n";
  if (!Result.Failed) {
    Os << "no divergences\n";
    return Os.str();
  }
  if (Result.Divergences.size() > 1) {
    Os << "\n" << Result.Divergences.size() << " divergences:\n";
    for (const FuzzDivergence &D : Result.Divergences)
      Os << "  seed " << D.Seed << " [" << genProfileName(D.Profile)
         << "], oracle " << D.Oracle << "\n";
  }
  Os << "\nDIVERGENCE at seed " << Result.FailingSeed << " ["
     << genProfileName(Result.FailingProfile) << "], oracle "
     << Result.Report.Oracle << ":\n  " << Result.Report.Detail << "\n";
  Os << "repro (" << Result.ReproStatements << " statements):\n"
     << Result.ReproSource;
  return Os.str();
}

} // namespace ppd::testing
