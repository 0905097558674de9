//===- tests/race_simd_test.cpp - Race detector differentials -------------===//
//
// Part of PPD test suite.
//
// The interval race detector (a clock-window merge over per-variable
// writer/reader lists) must produce element-for-element the race lists of
// NaiveAllPairs and VarIndexed on every input: the examples/ corpus, a
// fuzz sweep of generated programs, and a 16-worker lock-step trace with
// thousands of internal edges. The window it is built on must agree with
// the vector-clock simultaneity oracle on every cross-process edge pair.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pardyn/ParallelDynamicGraph.h"
#include "pardyn/RaceDetector.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <fstream>
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

const char *const Corpus[] = {
    "bank_race.ppl", "bounded_buffer.ppl", "crash.ppl",
    "deadlock.ppl",  "fig41.ppl",
};

std::string readCorpusFile(const std::string &Name) {
  std::ifstream In(std::string(PPD_EXAMPLES_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "cannot open corpus file " << Name;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Runs a generated program with its derived schedule seed and quantum.
Ran runGenerated(uint64_t Seed) {
  GenProgram Gen = generateProgram(Seed);
  MachineOptions MOpts;
  MOpts.Quantum = Gen.Quantum;
  return runProgram(Gen.render(), Gen.SchedSeed, MOpts, {},
                    /*ExpectCompleted=*/false);
}

std::string describeRace(const Race &R) {
  std::ostringstream Out;
  Out << "s" << R.SharedIdx << " p" << R.First.Pid << "e" << R.First.EndNode
      << "/p" << R.Second.Pid << "e" << R.Second.EndNode << " "
      << (R.Kind == RaceKind::WriteWrite ? "WW" : "RW");
  return Out.str();
}

/// All three algorithms over one execution instance must agree
/// element-for-element; returns the (canonical) race list.
std::vector<Race> expectAgreement(const ExecutionLog &Log,
                                  const SymbolTable &Symbols,
                                  const std::string &Label) {
  ParallelDynamicGraph Graph(Log, Symbols.NumSharedVars);
  RaceDetector Detector(Graph, Symbols);
  RaceDetectionResult Naive = Detector.detect(RaceAlgorithm::NaiveAllPairs);
  RaceDetectionResult Indexed = Detector.detect(RaceAlgorithm::VarIndexed);
  RaceDetectionResult Merged = Detector.detect(RaceAlgorithm::Interval);
  EXPECT_EQ(Naive.Races.size(), Indexed.Races.size()) << Label;
  EXPECT_EQ(Naive.Races.size(), Merged.Races.size()) << Label;
  size_t N = std::min(Naive.Races.size(),
                      std::min(Indexed.Races.size(), Merged.Races.size()));
  for (size_t I = 0; I != N; ++I) {
    EXPECT_TRUE(Naive.Races[I] == Indexed.Races[I])
        << Label << " race " << I << ": naive "
        << describeRace(Naive.Races[I]) << " vs indexed "
        << describeRace(Indexed.Races[I]);
    EXPECT_TRUE(Naive.Races[I] == Merged.Races[I])
        << Label << " race " << I << ": naive "
        << describeRace(Naive.Races[I]) << " vs interval "
        << describeRace(Merged.Races[I]);
  }
  return Naive.Races;
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

TEST(RaceSimdDifferentialTest, ExamplesCorpus) {
  // Every shipped example, including the deliberately racy one; crash and
  // deadlock programs don't complete, which is fine — races are detected
  // over whatever log the run produced.
  bool SawRace = false;
  for (const char *Name : Corpus) {
    std::string Source = readCorpusFile(Name);
    for (uint64_t Seed : {1u, 5u, 9u}) {
      Ran R = runProgram(Source, Seed, {}, {}, /*ExpectCompleted=*/false);
      ASSERT_TRUE(R.Prog) << Name;
      std::string Label = std::string(Name) + " seed " + std::to_string(Seed);
      SawRace |= !expectAgreement(R.Log, *R.Prog->Symbols, Label).empty();
    }
  }
  // The corpus includes bank_race.ppl: at least one instance must race,
  // otherwise this differential is vacuous.
  EXPECT_TRUE(SawRace) << "no corpus instance raced; differential is vacuous";
}

//===----------------------------------------------------------------------===//
// Differential: generated programs and one large trace.
//===----------------------------------------------------------------------===//

TEST(RaceSimdDifferentialTest, FuzzSweep) {
  // 16 seeds spanning the generator's profiles (racy, sync-heavy,
  // channels, ...). Each runs with its derived schedule seed and quantum.
  unsigned Raced = 0;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    Ran R = runGenerated(Seed);
    ASSERT_TRUE(R.Prog) << "seed " << Seed;
    std::string Label = "gen seed " + std::to_string(Seed);
    Raced += !expectAgreement(R.Log, *R.Prog->Symbols, Label).empty();
  }
  EXPECT_GT(Raced, 0u) << "no generated instance raced; sweep is vacuous";
}

TEST(RaceSimdDifferentialTest, LargeLockStepTraceAgrees) {
  // The size at which an E×E simultaneity structure would cost megabytes:
  // 16 workers in lock-step, thousands of internal edges.
  Ran R = runProgram(lockStepProgram(16, 110), 3);
  ASSERT_TRUE(R.Prog);
  ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
  const size_t Edges = Graph.allEdges().size();
  ASSERT_GE(Edges, 5000u);
  std::vector<Race> Races =
      expectAgreement(R.Log, *R.Prog->Symbols,
                      "lock-step, " + std::to_string(Edges) + " edges");
  bool SawWriteWrite = false, SawReadWrite = false;
  for (const Race &Found : Races) {
    SawWriteWrite |= Found.Kind == RaceKind::WriteWrite;
    SawReadWrite |= Found.Kind == RaceKind::ReadWrite;
  }
  EXPECT_TRUE(SawWriteWrite && SawReadWrite)
      << "the planted races did not show; the differential is weak";
}

TEST(RaceSimdDifferentialTest, ConcurrentDetectIsDeterministic) {
  // Interval keeps no state between calls: one detector shared by several
  // threads hands each the same list and cost (the TSan leg runs this).
  for (uint64_t Seed : {2u, 5u, 8u, 12u}) {
    Ran R = runGenerated(Seed);
    ASSERT_TRUE(R.Prog) << "seed " << Seed;
    ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
    RaceDetector Detector(Graph, *R.Prog->Symbols);
    RaceDetectionResult Serial = Detector.detect(RaceAlgorithm::Interval);
    std::vector<RaceDetectionResult> Concurrent(3);
    std::vector<std::thread> Threads;
    for (RaceDetectionResult &Out : Concurrent)
      Threads.emplace_back(
          [&] { Out = Detector.detect(RaceAlgorithm::Interval); });
    for (std::thread &T : Threads)
      T.join();
    for (const RaceDetectionResult &Out : Concurrent) {
      EXPECT_TRUE(Out.Races == Serial.Races) << "seed " << Seed;
      EXPECT_EQ(Out.PairsExamined, Serial.PairsExamined) << "seed " << Seed;
    }
  }
}

TEST(RaceSimdDifferentialTest, RepeatedDetectIsIdempotent) {
  // The legacy algorithms reuse member scratch between calls; repeated
  // detection on one instance must not be contaminated by earlier passes.
  std::string Source = readCorpusFile("bank_race.ppl");
  Ran R = runProgram(Source, 1, {}, {}, /*ExpectCompleted=*/false);
  ASSERT_TRUE(R.Prog);
  ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
  RaceDetector Detector(Graph, *R.Prog->Symbols);
  RaceDetectionResult First = Detector.detect(RaceAlgorithm::Interval);
  for (RaceAlgorithm A : {RaceAlgorithm::NaiveAllPairs,
                          RaceAlgorithm::VarIndexed,
                          RaceAlgorithm::Interval}) {
    RaceDetectionResult Again = Detector.detect(A);
    ASSERT_EQ(First.Races.size(), Again.Races.size())
        << raceAlgorithmName(A);
    for (size_t I = 0; I != First.Races.size(); ++I)
      EXPECT_TRUE(First.Races[I] == Again.Races[I])
          << raceAlgorithmName(A) << " race " << I;
  }
}

TEST(RaceSimdDifferentialTest, AlgorithmNamesRoundTrip) {
  RaceAlgorithm A = RaceAlgorithm::NaiveAllPairs;
  EXPECT_TRUE(parseRaceAlgorithm("naive", A));
  EXPECT_EQ(int(A), int(RaceAlgorithm::NaiveAllPairs));
  EXPECT_TRUE(parseRaceAlgorithm("indexed", A));
  EXPECT_EQ(int(A), int(RaceAlgorithm::VarIndexed));
  EXPECT_TRUE(parseRaceAlgorithm("interval", A));
  EXPECT_EQ(int(A), int(RaceAlgorithm::Interval));
  // The retired name has no alias.
  EXPECT_FALSE(parseRaceAlgorithm("vectorized", A));
  EXPECT_FALSE(parseRaceAlgorithm("avx512", A));
  EXPECT_EQ(int(A), int(RaceAlgorithm::Interval)) << "Out must be untouched";
  for (RaceAlgorithm Each : {RaceAlgorithm::NaiveAllPairs,
                             RaceAlgorithm::VarIndexed,
                             RaceAlgorithm::Interval}) {
    RaceAlgorithm Back = RaceAlgorithm::NaiveAllPairs;
    EXPECT_TRUE(parseRaceAlgorithm(raceAlgorithmName(Each), Back));
    EXPECT_EQ(int(Back), int(Each));
  }
}

} // namespace
