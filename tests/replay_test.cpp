//===- tests/replay_test.cpp - Incremental-tracing replay tests -----------===//
//
// Part of PPD test suite: replay fidelity (postlog verification), nested
// interval skipping (Fig 5.2), unit-log restoration under concurrency
// (§5.5), failure reproduction, what-if overrides (§5.7).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Controller.h"
#include "core/Replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

using namespace ppd;
using namespace ppd::test;

namespace {

/// Replays every completed interval of every process and asserts the
/// replayed final values match the logged postlogs — the §5.5 validity
/// property of incremental tracing on race-free executions.
void expectAllIntervalsReplayFaithfully(const Ran &R) {
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  unsigned Replayed = 0;
  for (uint32_t Pid = 0; Pid != R.Log.Procs.size(); ++Pid) {
    for (const LogInterval &Interval : Index.intervals(Pid)) {
      if (Interval.PostlogRecord == InvalidId)
        continue;
      ReplayResult Res = Engine.replay(R.Log, Pid, Interval);
      EXPECT_TRUE(Res.Ok) << "pid " << Pid << " interval " << Interval.Index
                          << ": " << Res.Error;
      EXPECT_FALSE(Res.Partial);
      EXPECT_TRUE(Res.PostlogMismatches.empty())
          << "pid " << Pid << " interval " << Interval.Index << " var "
          << (Res.PostlogMismatches.empty()
                  ? 0u
                  : Res.PostlogMismatches[0].Var);
      ++Replayed;
    }
  }
  EXPECT_GT(Replayed, 0u);
}

// A variable only some paths write is still captured by the postlog on
// every path, so the prelog must carry its entry value: replay of the
// path that skips the write then verifies the caller's 5, not a zero.
TEST(ReplayTest, PartiallyWrittenGlobalVerifiesOnTheSkippingPath) {
  auto R = runProgram(R"(
int p0;
func helper(int a) {
  if (a == a) {
  } else {
    p0 = a;
  }
  return a;
}
func main() {
  p0 = 5;
  int x = helper(7);
  print(p0 + x);
}
)");
  expectAllIntervalsReplayFaithfully(R);
}

TEST(ReplayTest, SequentialProgramReplaysFaithfully) {
  auto R = runProgram(R"(
func main() {
  int i = 0;
  int sum = 0;
  while (i < 10) {
    if (i % 2 == 0) sum = sum + i;
    i = i + 1;
  }
  print(sum);
}
)");
  expectAllIntervalsReplayFaithfully(R);
}

TEST(ReplayTest, EventsMatchExecution) {
  auto R = runProgram("func main() { int x = 3; int y = x * 2; print(y); }");
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  ReplayResult Res = Engine.replay(R.Log, 0, Index.intervals(0)[0]);
  ASSERT_TRUE(Res.Ok) << Res.Error;

  // Three statement events: the two declarations and the print.
  ASSERT_EQ(Res.Events.Events.size(), 3u);
  EXPECT_EQ(Res.Events.Events[0].Writes.size(), 1u);
  EXPECT_EQ(Res.Events.Events[0].Writes[0].Value, 3);
  EXPECT_EQ(Res.Events.Events[1].Reads.size(), 1u);
  EXPECT_EQ(Res.Events.Events[1].Reads[0].Value, 3);
  EXPECT_EQ(Res.Events.Events[1].Writes[0].Value, 6);
  EXPECT_EQ(Res.Events.Events[2].Reads[0].Value, 6);
  EXPECT_EQ(Res.Output.size(), 1u);
  EXPECT_EQ(Res.Output[0].Value, 6);
}

TEST(ReplayTest, PredicateEventsCarryBranchOutcomes) {
  auto R = runProgram(
      "func main() { int x = 5; if (x > 3) print(1); else print(2); }");
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  ReplayResult Res = Engine.replay(R.Log, 0, Index.intervals(0)[0]);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  const TraceEvent *Predicate = nullptr;
  for (const TraceEvent &E : Res.Events.Events)
    if (E.IsPredicate)
      Predicate = &E;
  ASSERT_NE(Predicate, nullptr);
  EXPECT_TRUE(Predicate->BranchTaken);
}

TEST(ReplayTest, NestedCallSkippedWithPostlogApplied) {
  auto R = runProgram(R"(
shared int sv;
func bump(int d) { sv = sv + d; return sv; }
func main() {
  sv = 10;
  int got = bump(5);
  print(got + sv);
}
)");
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  // main's interval is interval 0; bump's nested interval follows.
  const LogInterval &Main = Index.intervals(0)[0];
  ASSERT_EQ(Main.Depth, 0u);
  ReplayResult Res = Engine.replay(R.Log, 0, Main);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_TRUE(Res.PostlogMismatches.empty());

  // The call appears as a CallSkipped event with the logged return value.
  const TraceEvent *Skipped = nullptr;
  for (const TraceEvent &E : Res.Events.Events)
    if (E.Kind == TraceEventKind::CallSkipped)
      Skipped = &E;
  ASSERT_NE(Skipped, nullptr);
  EXPECT_EQ(Skipped->Value, 15);
  ASSERT_EQ(Skipped->Args.size(), 1u);
  EXPECT_EQ(Skipped->Args[0], 5);
  // And the print saw got + sv = 15 + 15.
  ASSERT_EQ(Res.Output.size(), 1u);
  EXPECT_EQ(Res.Output[0].Value, 30);
}

TEST(ReplayTest, NestedIntervalReplaysIndependently) {
  auto R = runProgram(R"(
shared int sv;
func bump(int d) { sv = sv + d; return sv; }
func main() {
  sv = 10;
  print(bump(5));
}
)");
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  // Find bump's interval (depth 1).
  const LogInterval *Nested = nullptr;
  for (const LogInterval &Interval : Index.intervals(0))
    if (Interval.Depth == 1)
      Nested = &Interval;
  ASSERT_NE(Nested, nullptr);
  ReplayResult Res = Engine.replay(R.Log, 0, *Nested);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_TRUE(Res.PostlogMismatches.empty());
  EXPECT_TRUE(Res.HasReturn);
  EXPECT_EQ(Res.ReturnValue, 15);
}

TEST(ReplayTest, InheritedLeafReexecutesInline) {
  CompileOptions COpts;
  COpts.EBlocks.LeafInheritance = true;
  auto R = runProgram(R"(
func leaf(int x) { return x * x; }
func main() { print(leaf(7)); }
)",
                      1, {}, COpts);
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  ReplayResult Res = Engine.replay(R.Log, 0, Index.intervals(0)[0]);
  ASSERT_TRUE(Res.Ok) << Res.Error;

  bool SawBegin = false, SawEnd = false, SawSkipped = false;
  for (const TraceEvent &E : Res.Events.Events) {
    SawBegin |= E.Kind == TraceEventKind::CallBegin;
    SawEnd |= E.Kind == TraceEventKind::CallEnd;
    SawSkipped |= E.Kind == TraceEventKind::CallSkipped;
  }
  EXPECT_TRUE(SawBegin && SawEnd)
      << "unlogged leaves replay inline with full detail";
  EXPECT_FALSE(SawSkipped);
  EXPECT_EQ(Res.Output[0].Value, 49);
}

TEST(ReplayTest, FailureReproducedAtSameStatement) {
  // One program per handler that can fail inside a replayed interval: the
  // replay must stop at the live run's failing statement with its kind.
  const std::pair<const char *, const char *> Cases[] = {
      {"Div", "func main() { int d = 4; int z = d - 4; print(d / z); }"},
      {"Mod", "func main() { int d = 4; int z = d - 4; print(d % z); }"},
      {"LoadLocalElem",
       "func main() { int a[3]; int k = 2 + 3; print(a[k]); }"},
      {"StoreLocalElem",
       "func main() { int a[3]; int k = 2 + 3; a[k] = 1; print(k); }"},
      {"LoadSharedElem", "shared int sa[3];\n"
                         "func main() { int k = 0 - 1; print(sa[k]); }"},
      {"StoreSharedElem", "shared int sa[3];\n"
                          "func main() { int k = 1 + 2; sa[k] = 7; }"},
      {"LoadPrivElem",
       "int pa[3];\nfunc main() { int k = 2 + 2; print(pa[k]); }"},
      {"StorePrivElem",
       "int pa[3];\nfunc main() { int k = 0 - 2; pa[k] = 7; }"},
      {"Sqrt", "func main() { int k = 0 - 4; print(sqrt(k)); }"},
  };
  for (const auto &[Name, Source] : Cases) {
    SCOPED_TRACE(Name);
    auto R = runProgram(Source, 1, {}, {}, /*ExpectCompleted=*/false);
    ASSERT_EQ(int(R.Result.Outcome), int(RunResult::Status::Failed));
    LogIndex Index(R.Log);
    const LogInterval *Open = Index.lastOpenInterval(0);
    ASSERT_NE(Open, nullptr) << "failure leaves the interval open";

    ReplayEngine Engine(*R.Prog);
    ReplayResult Res = Engine.replay(R.Log, 0, *Open);
    ASSERT_TRUE(Res.Ok) << Res.Error;
    EXPECT_TRUE(Res.FailureHit);
    EXPECT_EQ(int(Res.Failure.Kind), int(R.Result.Error.Kind));
    EXPECT_EQ(Res.Failure.Stmt, R.Result.Error.Stmt);
  }
}

TEST(ReplayTest, BudgetCutsAtEveryInstruction) {
  // `i = 0` decodes to StoreLocalImm and `i < 5` to JumpIfCmp: a budget
  // that ends inside either pair must split it, charge the instruction
  // that could not run, and leave a prefix of the full replay's trace.
  auto R = runProgram(R"(
func main() {
  int i;
  int s = 0;
  for (i = 0; i < 5; i = i + 1) {
    if (i % 2 == 0) s = s + i;
    else s = s - 1;
  }
  print(s);
}
)");
  bool HasCmp = false, HasImm = false;
  const DecodedChunk &Code = R.Prog->func(R.Prog->MainIndex).EmuDecoded;
  for (uint32_t Pc = 0; Pc != Code.size(); ++Pc) {
    HasCmp |= Code.at(Pc).Opcode == DOp::JumpIfCmp;
    HasImm |= Code.at(Pc).Opcode == DOp::StoreLocalImm;
  }
  ASSERT_TRUE(HasCmp && HasImm);

  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  const LogInterval &Interval = Index.intervals(0)[0];
  ReplayResult Full = Engine.replay(R.Log, 0, Interval);
  ASSERT_TRUE(Full.Ok) << Full.Error;
  const std::vector<TraceEvent> &All = Full.Events.Events;

  auto IsPrefix = [](const auto &Part, const auto &Whole) {
    return Part.size() <= Whole.size() &&
           std::equal(Part.begin(), Part.end(), Whole.begin());
  };
  for (uint64_t N = 1; N <= Full.Instructions; ++N) {
    SCOPED_TRACE(N);
    ReplayOptions Options;
    Options.MaxInstructions = N;
    ReplayResult Res = Engine.replay(R.Log, 0, Interval, Options);
    if (N == Full.Instructions) {
      EXPECT_TRUE(Res.Ok) << Res.Error;
      EXPECT_EQ(Res.Instructions, Full.Instructions);
      EXPECT_TRUE(Res.Events.Events == All);
      EXPECT_EQ(Res.Output.size(), Full.Output.size());
      EXPECT_EQ(Res.RootSlots, Full.RootSlots);
      continue;
    }
    EXPECT_FALSE(Res.Ok);
    EXPECT_EQ(Res.Error, "replay instruction budget exceeded");
    EXPECT_EQ(Res.Instructions, N + 1);
    const std::vector<TraceEvent> &Cut = Res.Events.Events;
    ASSERT_LE(Cut.size(), All.size());
    if (Cut.empty())
      continue;
    // Every event but the last is complete; the last one may have been
    // cut inside its statement, so its accesses are a prefix.
    EXPECT_TRUE(std::equal(Cut.begin(), Cut.end() - 1, All.begin()));
    const TraceEvent &Last = Cut.back(), &Same = All[Cut.size() - 1];
    EXPECT_EQ(int(Last.Kind), int(Same.Kind));
    EXPECT_EQ(Last.Stmt, Same.Stmt);
    EXPECT_TRUE(IsPrefix(Last.Reads, Same.Reads));
    EXPECT_TRUE(IsPrefix(Last.Writes, Same.Writes));
  }
}

TEST(ReplayTest, SharedValuesRestoredFromUnitLogs) {
  // The child reads sv *after* synchronizing; its replay must see the
  // value main wrote, via the unit log, not the stale prelog value.
  auto R = runProgram(R"(
shared int sv;
sem ready;
chan result;
func child() {
  P(ready);
  send(result, sv * 10);
}
func main() {
  spawn child();
  sv = 7;
  V(ready);
  print(recv(result));
}
)");
  ASSERT_EQ(R.PrintedValues, (std::vector<int64_t>{70}));
  expectAllIntervalsReplayFaithfully(R);

  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  ReplayResult Res = Engine.replay(R.Log, 1, Index.intervals(1)[0]);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  // The send's value expression read sv = 7.
  bool SawRead7 = false;
  for (const TraceEvent &E : Res.Events.Events)
    for (const TraceAccess &A : E.Reads)
      SawRead7 |= A.Value == 7;
  EXPECT_TRUE(SawRead7);
}

TEST(ReplayTest, RecvValuesComeFromLog) {
  auto R = runProgram(R"(
chan c[2];
func sender() { send(c, 123); }
func main() {
  spawn sender();
  print(recv(c) + 1);
}
)");
  ASSERT_EQ(R.PrintedValues, (std::vector<int64_t>{124}));
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  ReplayResult Res = Engine.replay(R.Log, 0, Index.intervals(0)[0]);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Output[0].Value, 124);
}

TEST(ReplayTest, InputValuesComeFromLog) {
  MachineOptions MOpts;
  MOpts.ProcessInputs = {{41}};
  auto R = runProgram("func main() { print(input() + 1); }", 1, MOpts);
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  ReplayResult Res = Engine.replay(R.Log, 0, Index.intervals(0)[0]);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Output[0].Value, 42);
}

TEST(ReplayTest, WhatIfOverrideChangesOutcome) {
  auto R = runProgram(R"(
func main() {
  int x = 10;
  if (x > 5) print(111);
  else print(222);
}
)");
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);

  // Find x's VarId.
  VarId X = varNamed(*R.Prog->Symbols, "x");
  ReplayOptions Options;
  // Event 0 is `int x = 10`; change x before event 1 (the if).
  Options.Overrides.push_back({1, X, -1, 2});
  ReplayResult Res = Engine.replay(R.Log, 0, Index.intervals(0)[0], Options);
  ASSERT_FALSE(Res.Output.empty());
  EXPECT_EQ(Res.Output[0].Value, 222)
      << "the what-if run takes the other branch (§5.7)";
}

TEST(ReplayTest, LoopEBlocksReplaySegmentsIndependently) {
  CompileOptions COpts;
  COpts.EBlocks.LoopBlocks = true;
  auto R = runProgram(R"(
func main() {
  int i = 0;
  int sum = 0;
  while (i < 6) { sum = sum + i; i = i + 1; }
  print(sum);
}
)",
                      1, {}, COpts);
  LogIndex Index(R.Log);
  // Three sequential intervals: pre-loop, loop, post-loop.
  ASSERT_EQ(Index.intervals(0).size(), 3u);
  for (const LogInterval &Interval : Index.intervals(0))
    EXPECT_EQ(Interval.Depth, 0u) << "segments are siblings, not nested";

  ReplayEngine Engine(*R.Prog);
  // Replaying only the *post-loop* segment must not re-execute the loop:
  // few instructions, and the print value is right.
  ReplayResult Post = Engine.replay(R.Log, 0, Index.intervals(0)[2]);
  ASSERT_TRUE(Post.Ok) << Post.Error;
  ASSERT_EQ(Post.Output.size(), 1u);
  EXPECT_EQ(Post.Output[0].Value, 15);
  EXPECT_LT(Post.Instructions, 20u);

  // The loop segment replays faithfully too.
  ReplayResult Loop = Engine.replay(R.Log, 0, Index.intervals(0)[1]);
  ASSERT_TRUE(Loop.Ok) << Loop.Error;
  EXPECT_TRUE(Loop.PostlogMismatches.empty());
}

// Property sweep: across seeds and a workload mixing semaphores, channels,
// nested calls and loops, every completed interval replays faithfully.
class ReplayFidelityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayFidelityTest, AllIntervalsFaithfulAcrossSchedules) {
  auto R = runProgram(R"(
shared int account;
sem lock = 1;
chan done;
func deposit(int amount) {
  P(lock);
  account = account + amount;
  V(lock);
  return account;
}
func worker(int n) {
  int i = 0;
  int last = 0;
  for (i = 0; i < n; i = i + 1) last = deposit(i + 1);
  send(done, last);
}
func main() {
  spawn worker(5);
  spawn worker(5);
  int a = recv(done);
  int b = recv(done);
  print(account);
}
)",
                      GetParam());
  ASSERT_EQ(R.PrintedValues, (std::vector<int64_t>{30}));
  expectAllIntervalsReplayFaithfully(R);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayFidelityTest,
                         ::testing::Values(1, 2, 3, 5, 11, 17, 23, 31));


TEST(ReplayTest, LoopEBlockWithSyncOpsInsideReplaysFaithfully) {
  // The critical interaction: a loop that is its own e-block *and*
  // synchronizes every iteration — unit logs must re-seed shared values
  // inside the loop region's replay.
  CompileOptions COpts;
  COpts.EBlocks.LoopBlocks = true;
  auto R = runProgram(R"(
shared int sv;
sem m = 1;
sem done;
func other() {
  int i = 0;
  for (i = 0; i < 8; i = i + 1) {
    P(m);
    sv = sv + 10;
    V(m);
  }
  V(done);
}
func main() {
  spawn other();
  int j = 0;
  int acc = 0;
  while (j < 8) {
    P(m);
    sv = sv + 1;
    acc = acc + sv;
    V(m);
    j = j + 1;
  }
  P(done);
  print(acc);
}
)",
                      7, {}, COpts);
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  unsigned LoopIntervals = 0;
  for (uint32_t Pid = 0; Pid != R.Log.Procs.size(); ++Pid) {
    for (const LogInterval &Interval : Index.intervals(Pid)) {
      if (Interval.PostlogRecord == InvalidId)
        continue;
      if (R.Prog->eblock(Interval.EBlock).Kind == EBlockKind::Loop)
        ++LoopIntervals;
      ReplayResult Res = Engine.replay(R.Log, Pid, Interval);
      ASSERT_TRUE(Res.Ok) << "pid " << Pid << ": " << Res.Error;
      EXPECT_TRUE(Res.PostlogMismatches.empty())
          << "pid " << Pid << " interval " << Interval.Index;
    }
  }
  EXPECT_GE(LoopIntervals, 2u) << "both processes had loop e-blocks";
}

TEST(ReplayTest, WhatIfDivergenceIsFlagged) {
  // Overriding the loop bound changes the number of input() consumptions:
  // the run leaves the logged record path and must say so.
  MachineOptions MOpts;
  MOpts.ProcessInputs = {{10, 20, 30}};
  auto R = runProgram(R"(
func main() {
  int n = 3;
  int i = 0;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) acc = acc + input();
  print(acc);
}
)",
                      1, MOpts);
  ASSERT_EQ(R.PrintedValues, (std::vector<int64_t>{60}));
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  VarId N = varNamed(*R.Prog->Symbols, "n");
  ReplayOptions Options;
  Options.Overrides.push_back({1, N, -1, 5}); // ask for 5 inputs; only 3 logged
  ReplayResult Res = Engine.replay(R.Log, 0, Index.intervals(0)[0], Options);
  EXPECT_TRUE(Res.Diverged);
}

//===----------------------------------------------------------------------===//
// Replay-service determinism (the §5.5 independence property): the same
// flowback query answered by fresh replays and from the cache must
// produce bit-identical traces and graphs.
//===----------------------------------------------------------------------===//

/// Everything a flowback query materializes: per-interval event streams
/// plus the spliced dynamic-graph edges.
struct ReplayedWorld {
  std::vector<std::vector<TraceEvent>> Streams;
  std::vector<std::tuple<int, DynNodeId, DynNodeId, VarId, int>> Edges;
  uint64_t EngineReplays = 0;
  uint64_t CacheHits = 0;
};

/// Traces every completed interval of every process through a controller,
/// resolves all cross-process reads, and snapshots the result.
/// \p QueryTwice re-asks the replay service for every interval
/// afterwards, so the answers must come from the cache.
ReplayedWorld replayWorld(const Ran &R, bool QueryTwice) {
  PpdController C(*R.Prog, R.Log);

  std::vector<std::pair<uint32_t, uint32_t>> All;
  for (uint32_t Pid = 0; Pid != R.Log.Procs.size(); ++Pid)
    for (const LogInterval &Interval : C.logIndex().intervals(Pid))
      if (Interval.PostlogRecord != InvalidId)
        All.push_back({Pid, Interval.Index});

  for (const auto &[Pid, IntervalIdx] : All)
    C.ensureInterval(Pid, IntervalIdx);
  C.resolveAllCrossReads();

  ReplayedWorld World;
  for (const auto &[Pid, IntervalIdx] : All) {
    const ReplayResult *Res = C.replayOf(Pid, IntervalIdx);
    EXPECT_NE(Res, nullptr) << "pid " << Pid << " interval " << IntervalIdx;
    if (QueryTwice && Res) {
      ReplayService::ReplayPtr Again =
          C.replayService().get(Pid, IntervalIdx);
      EXPECT_TRUE(Again && Again->Events.Events == Res->Events.Events)
          << "cached answer differs for pid " << Pid << " interval "
          << IntervalIdx;
    }
    World.Streams.push_back(Res ? Res->Events.Events
                                : std::vector<TraceEvent>{});
  }
  for (const DynEdge &E : C.graph().edges())
    World.Edges.push_back(
        {int(E.Kind), E.From, E.To, E.Var, int(E.Branch)});
  World.EngineReplays = C.replayService().stats().EngineReplays;
  World.CacheHits = C.replayService().stats().Cache.Hits;
  return World;
}

class ReplayDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayDeterminismTest, SerialCachedParallelBitIdentical) {
  auto R = runProgram(R"(
shared int account;
sem lock = 1;
chan done;
func deposit(int amount) {
  P(lock);
  account = account + amount;
  V(lock);
  return account;
}
func worker(int n) {
  int i = 0;
  int last = 0;
  for (i = 0; i < n; i = i + 1) last = deposit(i + 1);
  send(done, last);
}
func main() {
  spawn worker(4);
  spawn worker(4);
  int a = recv(done);
  int b = recv(done);
  print(account);
}
)",
                      GetParam());
  ASSERT_EQ(R.PrintedValues, (std::vector<int64_t>{20}));

  ReplayedWorld Serial = replayWorld(R, /*QueryTwice=*/false);
  ReplayedWorld Cached = replayWorld(R, /*QueryTwice=*/true);

  // The cached pass answered its repeats from the cache, not the engine.
  EXPECT_EQ(Cached.EngineReplays, Serial.EngineReplays);
  EXPECT_GT(Cached.CacheHits, 0u);

  ASSERT_EQ(Serial.Streams.size(), Cached.Streams.size());
  for (size_t I = 0; I != Serial.Streams.size(); ++I)
    EXPECT_EQ(Serial.Streams[I], Cached.Streams[I]) << "stream " << I;
  EXPECT_EQ(Serial.Edges, Cached.Edges);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayDeterminismTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 13, 17, 23, 29, 31));

TEST(ReplayTest, WhatIfOnLoggedPathDoesNotDiverge) {
  auto R = runProgram("func main() { int x = 4; print(x * 2); }");
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog);
  VarId X = varNamed(*R.Prog->Symbols, "x");
  ReplayOptions Options;
  Options.Overrides.push_back({1, X, -1, 7});
  ReplayResult Res = Engine.replay(R.Log, 0, Index.intervals(0)[0], Options);
  EXPECT_FALSE(Res.Diverged);
  ASSERT_EQ(Res.Output.size(), 1u);
  EXPECT_EQ(Res.Output[0].Value, 14);
}

} // namespace
