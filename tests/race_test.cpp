//===- tests/race_test.cpp - Race detector against Defs 6.1–6.4 -----------===//
//
// Part of PPD test suite.
//
// The race detector (a clock-window merge over per-variable writer/reader
// lists) must produce element for element the races Defs 6.1–6.4 give
// when evaluated from scratch over a fully traced run of the same
// schedule (the fuzzer's spec/race leg) on every input: the examples/
// corpus, a fuzz sweep of generated programs, and a 16-worker lock-step
// trace with thousands of internal edges. The window it is built on must
// agree with the vector-clock simultaneity oracle on every cross-process
// edge pair.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pardyn/ParallelDynamicGraph.h"
#include "pardyn/RaceDetector.h"
#include "testing/DiffOracles.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ppd;
using namespace ppd::test;
using ppd::testing::GenProgram;
using ppd::testing::generateProgram;

namespace {

/// Runs a generated program with its derived schedule seed and quantum.
Ran runGenerated(uint64_t Seed) {
  GenProgram Gen = generateProgram(Seed);
  MachineOptions MOpts;
  MOpts.Quantum = Gen.Quantum;
  return runProgram(Gen.render(), Gen.SchedSeed, MOpts, {},
                    /*ExpectCompleted=*/false);
}

/// detect() over the Logging run of \p Prog under \p MOpts must equal the
/// spec's races over the FullTrace run; returns the detector's list.
std::vector<Race> expectSpec(const CompiledProgram &Prog,
                             const MachineOptions &MOpts,
                             const std::string &Label) {
  std::vector<Race> Races;
  EXPECT_EQ(ppd::testing::checkRaceSpec(Prog, MOpts, Races), "") << Label;
  return Races;
}

MachineOptions withSeed(uint64_t Seed, MachineOptions MOpts = {}) {
  MOpts.Seed = Seed;
  return MOpts;
}

/// simultaneousWindow against Def 6.1 (ParallelDynamicGraph::simultaneous)
/// for every cross-process edge pair of \p Graph: over each process's
/// full edge list and over each variable's writer list, answered fresh
/// and as a forward walk that passes every answer back in.
void expectWindowsMatchOracle(const ParallelDynamicGraph &Graph,
                              unsigned NumShared, const std::string &Label) {
  using Window = ParallelDynamicGraph::Window;
  const uint32_t P = Graph.numProcs();
  auto Check = [&](uint32_t Pid, const std::vector<uint32_t> &Ends,
                   const std::string &List) {
    const uint32_t *Begin = Ends.data(), *End = Begin + Ends.size();
    for (uint32_t Q = 0; Q != P; ++Q) {
      if (Q == Pid)
        continue;
      Window Walk{Begin, Begin};
      for (uint32_t E = 1; E <= Graph.edges(Q).size(); ++E) {
        const EdgeRef Edge{Q, E};
        Window Fresh =
            Graph.simultaneousWindow(Edge, Pid, {Begin, Begin}, End);
        Walk = Graph.simultaneousWindow(Edge, Pid, Walk, End);
        ASSERT_TRUE(Walk.Lo == Fresh.Lo && Walk.Hi == Fresh.Hi)
            << Label << ", " << List << ": walk and fresh windows differ at p"
            << Q << "e" << E << " over p" << Pid;
        for (size_t I = 0; I != Ends.size(); ++I) {
          bool InWindow = Begin + I >= Fresh.Lo && Begin + I < Fresh.Hi;
          ASSERT_EQ(InWindow, Graph.simultaneous(Edge, {Pid, Ends[I]}))
              << Label << ", " << List << ": p" << Q << "e" << E << " vs p"
              << Pid << "e" << Ends[I];
        }
      }
    }
  };
  for (uint32_t Pid = 0; Pid != P; ++Pid) {
    std::vector<uint32_t> All(Graph.edges(Pid).size());
    std::iota(All.begin(), All.end(), 1u);
    Check(Pid, All, "all edges");
    for (uint32_t S = 0; S != NumShared; ++S) {
      std::span<const uint32_t> Writers = Graph.writerEnds(S, Pid);
      Check(Pid, {Writers.begin(), Writers.end()},
            "writers of s" + std::to_string(S));
    }
  }
}

/// \p Workers processes in lock-step over one semaphore and a channel for
/// \p Rounds rounds: a lock-protected counter (race-free), an unprotected
/// read of it every tenth round (read/write races with the lock
/// sections), and one planted write/write race after the loop.
std::string lockStepProgram(unsigned Workers, unsigned Rounds) {
  const std::string W = std::to_string(Workers), R = std::to_string(Rounds);
  return "shared int total;\nshared int peek;\nshared int racy;\n"
         "sem lock = 1;\nsem done;\nchan ch[4];\n"
         "func worker(int w) {\n"
         "  int r = 0;\n"
         "  for (r = 0; r < " + R + "; r = r + 1) {\n"
         "    P(lock);\n"
         "    total = total + w;\n"
         "    V(lock);\n"
         "    if (r % 10 == 0) peek = total;\n"
         "    send(ch, w);\n"
         "  }\n"
         "  if (w == 3) racy = w;\n"
         "  if (w == 11) racy = w;\n"
         "  V(done);\n"
         "}\n"
         "func main() {\n"
         "  int i = 0;\n"
         "  int s = 0;\n"
         "  for (i = 0; i < " + W + "; i = i + 1) spawn worker(i);\n"
         "  for (i = 0; i < " + W + " * " + R + "; i = i + 1)\n"
         "    s = s + recv(ch);\n"
         "  for (i = 0; i < " + W + "; i = i + 1) P(done);\n"
         "  print(s);\n"
         "}\n";
}

//===----------------------------------------------------------------------===//
// The simultaneity window against the vector-clock oracle.
//===----------------------------------------------------------------------===//

TEST(SimultaneousWindowTest, MatchesVectorClockOracle) {
  for (const char *Name : Corpus)
    for (uint64_t Seed : {1u, 5u, 9u}) {
      Ran R = runProgram(readCorpusFile(Name), Seed, {}, {},
                         /*ExpectCompleted=*/false);
      ASSERT_TRUE(R.Prog) << Name;
      ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
      expectWindowsMatchOracle(Graph, R.Prog->Symbols->NumSharedVars,
                               std::string(Name) + " seed " +
                                   std::to_string(Seed));
    }
  // Generated programs span the generator's profiles (racy, sync-heavy,
  // channels, deadlock-prone), so the graphs carry real concurrency.
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Ran R = runGenerated(Seed);
    ASSERT_TRUE(R.Prog) << "seed " << Seed;
    ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
    expectWindowsMatchOracle(Graph, R.Prog->Symbols->NumSharedVars,
                             "gen seed " + std::to_string(Seed));
  }
}

//===----------------------------------------------------------------------===//
// Differential: corpus programs.
//===----------------------------------------------------------------------===//

TEST(RaceDifferentialTest, ExamplesCorpus) {
  // Every shipped example, including the deliberately racy one; crash and
  // deadlock programs don't complete, which is fine — races are detected
  // over whatever the run did before it stopped.
  bool SawRace = false;
  for (const char *Name : Corpus) {
    auto Prog = compileOk(readCorpusFile(Name));
    ASSERT_TRUE(Prog) << Name;
    for (uint64_t Seed : {1u, 5u, 9u})
      SawRace |= !expectSpec(*Prog, withSeed(Seed),
                             std::string(Name) + " seed " +
                                 std::to_string(Seed))
                      .empty();
  }
  // The corpus includes bank_race.ppl: at least one instance must race,
  // otherwise this differential is vacuous.
  EXPECT_TRUE(SawRace) << "no corpus instance raced; differential is vacuous";
}

//===----------------------------------------------------------------------===//
// Differential: generated programs and one large trace.
//===----------------------------------------------------------------------===//

TEST(RaceDifferentialTest, FuzzSweep) {
  // 16 seeds spanning the generator's profiles (racy, sync-heavy,
  // channels, ...). Each runs with its derived schedule seed and quantum.
  unsigned Raced = 0;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    GenProgram Gen = generateProgram(Seed);
    auto Prog = compileOk(Gen.render());
    ASSERT_TRUE(Prog) << "seed " << Seed;
    MachineOptions MOpts;
    MOpts.Quantum = Gen.Quantum;
    Raced += !expectSpec(*Prog, withSeed(Gen.SchedSeed, MOpts),
                         "gen seed " + std::to_string(Seed))
                  .empty();
  }
  EXPECT_GT(Raced, 0u) << "no generated instance raced; sweep is vacuous";
}

TEST(RaceDifferentialTest, LargeLockStepTraceAgrees) {
  // The size at which an E×E simultaneity structure would cost megabytes:
  // 16 workers in lock-step, thousands of internal edges.
  Ran R = runProgram(lockStepProgram(16, 110), 3);
  ASSERT_TRUE(R.Prog);
  ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
  const size_t Edges = Graph.allEdges().size();
  ASSERT_GE(Edges, 5000u);
  std::vector<Race> Races =
      expectSpec(*R.Prog, withSeed(3),
                 "lock-step, " + std::to_string(Edges) + " edges");
  bool SawWriteWrite = false, SawReadWrite = false;
  for (const Race &Found : Races) {
    SawWriteWrite |= Found.Kind == RaceKind::WriteWrite;
    SawReadWrite |= Found.Kind == RaceKind::ReadWrite;
  }
  EXPECT_TRUE(SawWriteWrite && SawReadWrite)
      << "the planted races did not show; the differential is weak";
}

TEST(RaceDifferentialTest, ConcurrentDetectIsDeterministic) {
  // Interval keeps no state between calls: one detector shared by several
  // threads hands each the same list and cost (the TSan leg runs this).
  for (uint64_t Seed : {2u, 5u, 8u, 12u}) {
    Ran R = runGenerated(Seed);
    ASSERT_TRUE(R.Prog) << "seed " << Seed;
    ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
    RaceDetector Detector(Graph, *R.Prog->Symbols);
    RaceDetectionResult Serial = Detector.detect();
    std::vector<RaceDetectionResult> Concurrent(3);
    std::vector<std::thread> Threads;
    for (RaceDetectionResult &Out : Concurrent)
      Threads.emplace_back(
          [&] { Out = Detector.detect(); });
    for (std::thread &T : Threads)
      T.join();
    for (const RaceDetectionResult &Out : Concurrent) {
      EXPECT_TRUE(Out.Races == Serial.Races) << "seed " << Seed;
      EXPECT_EQ(Out.PairsExamined, Serial.PairsExamined) << "seed " << Seed;
    }
  }
}

TEST(RaceDifferentialTest, RepeatedDetectIsIdempotent) {
  // Detection keeps no state between calls: repeated passes over one
  // instance hand back the same list.
  std::string Source = readCorpusFile("bank_race.ppl");
  Ran R = runProgram(Source, 1, {}, {}, /*ExpectCompleted=*/false);
  ASSERT_TRUE(R.Prog);
  ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
  RaceDetector Detector(Graph, *R.Prog->Symbols);
  RaceDetectionResult First = Detector.detect();
  ASSERT_FALSE(First.raceFree());
  for (int Pass = 0; Pass != 3; ++Pass) {
    RaceDetectionResult Again = Detector.detect();
    EXPECT_TRUE(Again.Races == First.Races) << "pass " << Pass;
    EXPECT_EQ(Again.PairsExamined, First.PairsExamined) << "pass " << Pass;
  }
}

} // namespace
