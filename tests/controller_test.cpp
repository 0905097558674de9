//===- tests/controller_test.cpp - PPD Controller integration -------------===//
//
// Part of PPD test suite: flowback analysis end to end (Fig 4.1),
// incremental tracing behaviour, cross-process dependence resolution
// (§6.3), sub-graph expansion, what-if, restoration, deadlock analysis.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Controller.h"
#include "core/DeadlockAnalyzer.h"
#include "core/DebugSession.h"

#include <gtest/gtest.h>

using namespace ppd;
using namespace ppd::test;

namespace {

/// The paper's Fig 4.1 program fragment, completed into a runnable PPL
/// program. SubD(a, b, a+b+c) with d = -16 drives the else branch; s6 is
/// `a = a + sq`.
const char *Fig41Program = R"(
func SubD(int p1, int p2, int p3) {
  return p1 * p2 - p3;
}
func main() {
  int a = 2;
  int b = 3;
  int c = 17;
  int d = SubD(a, b, a + b + c);
  int sq = 0;
  if (d > 0)
    sq = sqrt(d);
  else
    sq = sqrt(-d);
  a = a + sq;
  print(a);
}
)";

/// Walks one data/cross-data dependence step backwards from \p Node,
/// returning the source labelled with variable \p Name (or InvalidId).
DynNodeId dataSource(PpdController &C, DynNodeId Node,
                     const std::string &Name) {
  for (const DynEdge &E : C.dependencesOf(Node)) {
    if (E.Kind != DynEdgeKind::Data && E.Kind != DynEdgeKind::CrossData)
      continue;
    if (E.Var != InvalidId &&
        C.program().Symbols->var(E.Var).Name == Name)
      return E.From;
  }
  return InvalidId;
}

TEST(ControllerTest, Fig41FlowbackChain) {
  auto R = runProgram(Fig41Program);
  ASSERT_EQ(R.PrintedValues, (std::vector<int64_t>{6}));

  PpdController C(*R.Prog, std::move(R.Log));
  DynNodeId Last = C.startAtLastEvent(0);
  ASSERT_NE(Last, InvalidId);
  // The session starts at print(a).
  EXPECT_NE(C.graph().node(Last).Label.find("print"), std::string::npos);

  // print(a) ← a = a + sq (s6).
  DynNodeId S6 = dataSource(C, Last, "a");
  ASSERT_NE(S6, InvalidId);
  EXPECT_NE(C.graph().node(S6).Label.find("a = a + sq"),
            std::string::npos);
  EXPECT_TRUE(C.graph().node(S6).HasValue);
  EXPECT_EQ(C.graph().node(S6).Value, 6);

  // s6 reads sq, defined by the else branch sq = sqrt(-d).
  DynNodeId Sq = dataSource(C, S6, "sq");
  ASSERT_NE(Sq, InvalidId);
  EXPECT_NE(C.graph().node(Sq).Label.find("sq = sqrt(-d)"),
            std::string::npos);
  EXPECT_EQ(C.graph().node(Sq).Value, 4);

  // sq = sqrt(-d) is control dependent on the false arm of `if (d > 0)`.
  bool SawControl = false;
  for (const DynEdge &E : C.dependencesOf(Sq)) {
    if (E.Kind != DynEdgeKind::Control)
      continue;
    SawControl = true;
    EXPECT_EQ(E.Branch, 0) << "false arm";
    const DynNode &Predicate = C.graph().node(E.From);
    EXPECT_NE(Predicate.Label.find("if (d > 0)"), std::string::npos);
    EXPECT_TRUE(Predicate.HasValue);
    EXPECT_EQ(Predicate.Value, 0) << "the predicate evaluated false";
  }
  EXPECT_TRUE(SawControl);

  // sq's defining statement reads d, produced by the SubD call statement.
  DynNodeId D = dataSource(C, Sq, "d");
  ASSERT_NE(D, InvalidId);
  EXPECT_NE(C.graph().node(D).Label.find("SubD"), std::string::npos);
  EXPECT_EQ(C.graph().node(D).Value, -16);
}

TEST(ControllerTest, Fig41SubGraphExpansion) {
  auto R = runProgram(Fig41Program);
  PpdController C(*R.Prog, std::move(R.Log));
  C.startAtLastEvent(0);

  // Find the unexpanded SubD sub-graph node.
  DynNodeId SubGraph = InvalidId;
  for (uint32_t Id = 0; Id != C.graph().numNodes(); ++Id) {
    const DynNode &N = C.graph().node(Id);
    if (N.Kind == DynNodeKind::SubGraph && !N.Expanded)
      SubGraph = Id;
  }
  ASSERT_NE(SubGraph, InvalidId);
  EXPECT_TRUE(C.graph().node(SubGraph).HasValue);
  EXPECT_EQ(C.graph().node(SubGraph).Value, -16);

  // Fig 4.1's %1/%2/%3 parameter nodes feed the sub-graph node; %3 is the
  // fictional node for the expression argument a+b+c.
  unsigned ParamCount = 0;
  for (uint32_t Id = 0; Id != C.graph().numNodes(); ++Id) {
    const DynNode &N = C.graph().node(Id);
    if (N.Kind == DynNodeKind::Param && N.Parent == SubGraph) {
      ++ParamCount;
      if (N.Label == "%3") {
        EXPECT_EQ(N.Value, 22) << "a+b+c = 2+3+17";
      }
    }
  }
  EXPECT_EQ(ParamCount, 3u);

  // Expanding replays SubD's nested interval (incremental tracing!).
  uint64_t ReplaysBefore = C.stats().Replays;
  DynNodeId CalleeEntry = C.expandCall(SubGraph);
  ASSERT_NE(CalleeEntry, InvalidId);
  EXPECT_EQ(C.stats().Replays, ReplaysBefore + 1);
  EXPECT_TRUE(C.graph().node(SubGraph).Expanded);
  EXPECT_NE(C.graph().node(CalleeEntry).Label.find("SubD"),
            std::string::npos);

  // The callee fragment contains `return p1 * p2 - p3`.
  bool SawReturn = false;
  for (uint32_t Id = 0; Id != C.graph().numNodes(); ++Id)
    if (C.graph().node(Id).Label.find("return (p1 * p2) - p3") !=
        std::string::npos)
      SawReturn = true;
  EXPECT_TRUE(SawReturn);
}

TEST(ControllerTest, IncrementalTracingOnlyReplaysWhatIsAsked) {
  auto R = runProgram(R"(
func unrelated(int n) {
  int i = 0;
  int s = 0;
  for (i = 0; i < n; i = i + 1) s = s + i;
  return s;
}
func main() {
  int waste = unrelated(100);
  int x = 5;
  print(x + waste);
}
)");
  PpdController C(*R.Prog, std::move(R.Log));
  C.startAtLastEvent(0);
  // Only main's interval was replayed; `unrelated` (a nested interval with
  // hundreds of events) stays untraced until the user expands it.
  EXPECT_EQ(C.stats().Replays, 1u);
  EXPECT_LT(C.stats().EventsTraced, 10u);
}

TEST(ControllerTest, FailureSessionStartsAtFailingStatement) {
  auto R = runProgram(R"(
func main() {
  int d = 3;
  int z = d - 3;
  print(d / z);
}
)",
                      1, {}, {}, /*ExpectCompleted=*/false);
  ASSERT_EQ(int(R.Result.Outcome), int(RunResult::Status::Failed));
  StmtId FailStmt = R.Result.Error.Stmt;

  PpdController C(*R.Prog, std::move(R.Log));
  DynNodeId Root = C.startAtFailure(0);
  ASSERT_NE(Root, InvalidId);
  EXPECT_EQ(C.graph().node(Root).Stmt, FailStmt);

  // Flowback: the failing print reads z, defined by `int z = d - 3`.
  DynNodeId Z = dataSource(C, Root, "z");
  ASSERT_NE(Z, InvalidId);
  EXPECT_EQ(C.graph().node(Z).Value, 0);
}

TEST(ControllerTest, CrossProcessResolution) {
  auto R = runProgram(R"(
shared int sv;
sem ready;
func consumer() {
  P(ready);
  print(sv + 1);
}
func main() {
  spawn consumer();
  sv = 41;
  V(ready);
}
)");
  ASSERT_EQ(R.PrintedValues, (std::vector<int64_t>{42}));

  PpdController C(*R.Prog, std::move(R.Log));
  DynNodeId Print = C.startAtLastEvent(1); // consumer's print
  ASSERT_NE(Print, InvalidId);

  // Resolving the read of sv must pull in main's interval and produce a
  // cross-process edge from `sv = 41`.
  DynNodeId Producer = dataSource(C, Print, "sv");
  ASSERT_NE(Producer, InvalidId);
  const DynNode &P = C.graph().node(Producer);
  EXPECT_EQ(P.Pid, 0u) << "the producer lives in main's process";
  EXPECT_NE(P.Label.find("sv = 41"), std::string::npos);
  EXPECT_GE(C.stats().Replays, 2u);
}

TEST(ControllerTest, RacyReadYieldsRaceNode) {
  auto R = runProgram(R"(
shared int sv;
chan done;
func reader() { send(done, sv); }
func writer() { sv = 9; send(done, 1); }
func main() {
  spawn reader();
  spawn writer();
  int a = recv(done);
  int b = recv(done);
}
)");
  PpdController C(*R.Prog, std::move(R.Log));
  DynNodeId Send = C.startAtLastEvent(1); // reader's send
  ASSERT_NE(Send, InvalidId);
  C.dependencesOf(Send);
  // The read of sv is involved in a race: a RACE node must appear.
  bool SawRace = false;
  for (uint32_t Id = 0; Id != C.graph().numNodes(); ++Id)
    if (C.graph().node(Id).Label.find("RACE on sv") != std::string::npos)
      SawRace = true;
  EXPECT_TRUE(SawRace);
  EXPECT_FALSE(C.detectRaces().raceFree());
}

TEST(ControllerTest, SyncEdgesSplicedBetweenTracedFragments) {
  auto R = runProgram(R"(
chan c;
func sender() { send(c, 5); }
func main() {
  spawn sender();
  print(recv(c));
}
)");
  PpdController C(*R.Prog, std::move(R.Log));
  C.startAtLastEvent(0);
  C.startAtLastEvent(1);
  bool SawSyncEdge = false;
  for (const DynEdge &E : C.graph().edges())
    SawSyncEdge |= E.Kind == DynEdgeKind::Sync;
  EXPECT_TRUE(SawSyncEdge);
}

TEST(ControllerTest, WhatIfFlipsBranch) {
  auto R = runProgram(R"(
func main() {
  int x = 10;
  if (x > 5) print(111);
  else print(222);
}
)");
  PpdController C(*R.Prog, std::move(R.Log));
  VarId X = varNamed(*R.Prog->Symbols, "x");
  ReplayResult Res = C.whatIf(0, 0, {{1, X, -1, 0}});
  ASSERT_FALSE(Res.Output.empty());
  EXPECT_EQ(Res.Output[0].Value, 222);
}

TEST(ControllerTest, RestorationAccumulatesPostlogs) {
  auto R = runProgram(R"(
shared int sv;
func setter(int v) { sv = v; }
func main() {
  setter(10);
  setter(20);
  setter(30);
  print(sv);
}
)");
  PpdController C(*R.Prog, std::move(R.Log));
  const LogIndex &Index = C.logIndex();
  // Intervals: main(0), setter(1), setter(2), setter(3).
  ASSERT_EQ(Index.intervals(0).size(), 4u);
  VarId Sv = varNamed(*R.Prog->Symbols, "sv");
  uint32_t Offset = R.Prog->Symbols->var(Sv).Offset;
  EXPECT_EQ(C.restoreGlobals(0, 1).Shared[Offset], 10);
  EXPECT_EQ(C.restoreGlobals(0, 2).Shared[Offset], 20);
  EXPECT_EQ(C.restoreGlobals(0, 3).Shared[Offset], 30);
}

TEST(ControllerTest, DeadlockAnalysisFindsCycle) {
  auto R = runProgram(R"(
sem a = 1;
sem b = 1;
chan go;
func left() { P(a); int x = recv(go); P(b); V(b); V(a); }
func main() {
  spawn left();
  P(b);
  send(go, 1);
  P(a);
  V(a);
  V(b);
}
)",
                      1, {}, {}, /*ExpectCompleted=*/false);
  ASSERT_EQ(int(R.Result.Outcome), int(RunResult::Status::Deadlock));

  DeadlockAnalyzer Analyzer(*R.Prog, R.Log);
  DeadlockReport Report = Analyzer.analyze(R.Result.Deadlock);
  ASSERT_EQ(Report.Waits.size(), 2u);
  EXPECT_TRUE(Report.hasCycle());
  EXPECT_EQ(Report.Cycle.size(), 2u);
  std::string Text = Report.str(*R.Prog->Ast);
  EXPECT_NE(Text.find("wait-for cycle"), std::string::npos);
  EXPECT_NE(Text.find("P(a)"), std::string::npos);
}

TEST(ControllerTest, DotOutputRendersFig41Styles) {
  auto R = runProgram(Fig41Program);
  PpdController C(*R.Prog, std::move(R.Log));
  DynNodeId Last = C.startAtLastEvent(0);
  C.resolveAllCrossReads();
  std::string Dot = C.graph().dot(*R.Prog->Ast, {Last});
  EXPECT_NE(Dot.find("doublecircle"), std::string::npos)
      << "sub-graph node present";
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos)
      << "control dependence edges dashed";
  EXPECT_NE(Dot.find("%3"), std::string::npos) << "fictional param node";
}

TEST(ControllerTest, DebuggingFromSavedLogFile) {
  // Execution phase and debugging phase in separate "invocations": the
  // log round-trips through a file.
  ScopedTempDir TmpDir;
  std::string Path = TmpDir.file("log.bin");
  auto R = runProgram(Fig41Program);
  ASSERT_TRUE(R.Log.save(Path));

  ExecutionLog Loaded;
  ASSERT_TRUE(ExecutionLog::load(Path, Loaded));
  PpdController C(*R.Prog, std::move(Loaded));
  DynNodeId Last = C.startAtLastEvent(0);
  ASSERT_NE(Last, InvalidId);
  EXPECT_NE(dataSource(C, Last, "a"), InvalidId);
}

// A statement that calls a function writing a global and then reads that
// global sees the callee's value; the read must be able to flow back to
// the call, not only to the write before it.
TEST(ControllerTest, ReadAfterCallInSameStatementLinksTheCall) {
  auto R = runProgram(R"(
int g;
func bump() { g = 9; return 1; }
func main() {
  g = -3;
  int y = bump() + g;
  print(y);
}
)");
  ASSERT_EQ(R.PrintedValues, (std::vector<int64_t>{10}));
  PpdController C(*R.Prog, std::move(R.Log));
  DynNodeId Print = C.startAtLastEvent(0);
  ASSERT_NE(Print, InvalidId);
  DynNodeId Y = dataSource(C, Print, "y");
  ASSERT_NE(Y, InvalidId);
  bool FromCall = false;
  for (const DynEdge &E : C.dependencesOf(Y))
    if (E.Kind == DynEdgeKind::Data && E.Var != InvalidId &&
        C.program().Symbols->var(E.Var).Name == "g")
      FromCall |= C.graph().node(E.From).Kind == DynNodeKind::SubGraph;
  EXPECT_TRUE(FromCall);
}

/// Sixteen workers in lock-step rounds under one semaphore, feeding one
/// channel; main reads the lock-protected totals (cross-process reads)
/// and one variable worker 3 writes after its last synchronization (a
/// simultaneous writer: a RACE label).
std::string lockStepProgram() {
  std::string S = R"(
shared int total;
shared int last;
shared int racy;
sem lock = 1;
sem done;
chan ch;
func step(int x, int r) {
  int y = (x * 7 + r) % 101;
  P(lock);
  total = total + y;
  last = y;
  V(lock);
  send(ch, y % 13);
  return y;
}
func worker(int w) {
  int r = 0;
  int x = w;
  for (r = 0; r < 3; r = r + 1) x = step(x, r);
  V(done);
  if (w == 3) racy = racy + w;
}
func main() {
)";
  for (int W = 0; W != 16; ++W)
    S += "  spawn worker(" + std::to_string(W) + ");\n";
  S += R"(  int i = 0;
  int s = 0;
  for (i = 0; i < 48; i = i + 1) s = s + recv(ch);
  for (i = 0; i < 16; i = i + 1) P(done);
  P(lock);
  int t = total;
  int l = last;
  V(lock);
  print(s + t + l + racy);
}
)";
  return S;
}

uint64_t fnv1a(const std::string &Bytes) {
  uint64_t Hash = 1469598103934665603ull;
  for (unsigned char B : Bytes) {
    Hash ^= B;
    Hash *= 1099511628211ull;
  }
  return Hash;
}

// Golden fixture: the dynamic graph a fixed flowback walk builds over the
// lock-step program, rendered to DOT and hashed. It pins, byte for byte,
// which sync edges, cross-process data edges and race labels the
// controller splices and in what order — so a faster way of finding
// partners or writers cannot silently reorder or drop anything. Re-pin
// only for a deliberate change to graph construction.
TEST(ControllerTest, GoldenLockStepWalkGraph) {
  auto R = runProgram(lockStepProgram());
  PpdController C(*R.Prog, std::move(R.Log));
  DynNodeId Root = C.startAtLastEvent(0);
  ASSERT_NE(Root, InvalidId);

  // Breadth-first flowback from the final print, 80 steps.
  std::vector<DynNodeId> Queue = {Root};
  std::vector<bool> Seen(C.graph().numNodes(), false);
  for (size_t Head = 0; Head != Queue.size() && Head != 80; ++Head)
    for (const DynEdge &E : C.dependencesOf(Queue[Head])) {
      if (E.From >= Seen.size())
        Seen.resize(C.graph().numNodes(), false);
      if (!Seen[E.From]) {
        Seen[E.From] = true;
        Queue.push_back(E.From);
      }
    }
  C.resolveAllCrossReads();

  std::string Dot = C.graph().dot(*R.Prog->Ast);
  unsigned Sync = 0, Cross = 0;
  for (const DynEdge &E : C.graph().edges()) {
    Sync += E.Kind == DynEdgeKind::Sync;
    Cross += E.Kind == DynEdgeKind::CrossData;
  }
  EXPECT_GT(Sync, 0u);
  EXPECT_GT(Cross, 0u);
  EXPECT_NE(Dot.find("RACE on racy (p4)"), std::string::npos);
  uint64_t Hash = fnv1a(Dot);
  EXPECT_EQ(Hash, 0x402c320c00fd04b5ull)
      << "golden graph drifted; actual 0x" << std::hex << Hash;
}

/// A fixed debugging script over one run: a flowback walk from each
/// process's failure or last event, the expansion of the first
/// unexpanded call, a step on from there, the whole graph as DOT, races
/// and restoration. The responses name every visited node's label, value
/// and dependences in order, so the transcript pins node ids, in-edge
/// order and label text together.
std::string scriptedTranscript(Ran &R, unsigned Backs) {
  PpdController C(*R.Prog, std::move(R.Log));
  DebugSession S(*R.Prog, C);
  std::string Out;
  for (uint32_t Pid = 0; Pid != C.numProcs(); ++Pid) {
    Out += S.execute("where " + std::to_string(Pid));
    for (unsigned I = 0; I != Backs; ++I)
      Out += S.execute("back");
  }
  for (DynNodeId Id = 0; Id != C.graph().numNodes(); ++Id)
    if (C.graph().node(Id).Kind == DynNodeKind::SubGraph &&
        !C.graph().node(Id).Expanded) {
      Out += S.execute("expand " + std::to_string(Id));
      Out += S.execute("node " + std::to_string(Id));
      break;
    }
  Out += S.execute("back");
  Out += S.execute("fwd");
  Out += S.execute("graphdot");
  Out += S.execute("races");
  Out += S.execute("restore 0 0");
  return Out;
}

// Golden fixture: the scripted session over every shipped example under
// three schedules. Re-pin only for a deliberate change to what a session
// shows.
TEST(ControllerTest, GoldenCorpusSessionTranscripts) {
  struct Pin {
    const char *Name;
    uint64_t Seed;
    uint64_t Hash;
  };
  const Pin Pins[] = {
      {"bank_race.ppl", 1, 0xed955c56dc49e6e1ull},
      {"bank_race.ppl", 2, 0x997a51fef57a009dull},
      {"bank_race.ppl", 3, 0x68f7ead600db9aedull},
      {"bounded_buffer.ppl", 1, 0xd9181a4b7581db25ull},
      {"bounded_buffer.ppl", 2, 0x7b1190ad718b6809ull},
      {"bounded_buffer.ppl", 3, 0x127766a8962c75bbull},
      {"crash.ppl", 1, 0x04920e802a342f01ull},
      {"crash.ppl", 2, 0x04920e802a342f01ull},
      {"crash.ppl", 3, 0x04920e802a342f01ull},
      {"deadlock.ppl", 1, 0xaf390cc49dc1f363ull},
      {"deadlock.ppl", 2, 0xaf390cc49dc1f363ull},
      {"deadlock.ppl", 3, 0xaf390cc49dc1f363ull},
      {"fig41.ppl", 1, 0xac7b4bd3d94e2353ull},
      {"fig41.ppl", 2, 0xac7b4bd3d94e2353ull},
      {"fig41.ppl", 3, 0xac7b4bd3d94e2353ull},
  };
  for (const Pin &P : Pins) {
    Ran R = runProgram(readCorpusFile(P.Name), P.Seed, {}, {},
                       /*ExpectCompleted=*/false);
    ASSERT_TRUE(R.Prog) << P.Name;
    uint64_t Hash = fnv1a(scriptedTranscript(R, 6));
    EXPECT_EQ(Hash, P.Hash) << P.Name << " seed " << P.Seed
                            << " drifted; actual 0x" << std::hex << Hash;
  }
}

/// The shape of the episode benchmark's replay walk at test size: two
/// processes, each summing 48 calls of a unit() whose statements are long
/// arithmetic chains. Every unit() call is its own log interval, so each
/// root fragment holds 48 unexpanded calls.
std::string unitWalkProgram() {
  auto Mix = [](const char *Mul[4]) {
    std::string E = "s";
    for (int I = 0; I != 4; ++I)
      E = "(" + E + " * " + Mul[I] + " + " + std::to_string(I + 3) +
          ") % 999983";
    return E;
  };
  const char *First[4] = {"11", "13", "17", "19"};
  const char *Second[4] = {"23", "29", "31", "37"};
  return "sem done;\n"
         "func unit(int k) {\n"
         "  int i = 0;\n"
         "  int s = k + 5;\n"
         "  for (i = 0; i < 3; i = i + 1) {\n"
         "    s = " + Mix(First) + ";\n"
         "    s = " + Mix(Second) + ";\n"
         "  }\n"
         "  return s;\n"
         "}\n"
         "func worker(int base) {\n"
         "  int j = 0;\n"
         "  int acc = 0;\n"
         "  for (j = 0; j < 48; j = j + 1)\n"
         "    acc = (acc + unit(base + j)) % 999983;\n"
         "  print(acc);\n"
         "  V(done);\n"
         "}\n"
         "func main() {\n"
         "  spawn worker(100000);\n"
         "  int j = 0;\n"
         "  int acc = 0;\n"
         "  for (j = 0; j < 48; j = j + 1)\n"
         "    acc = (acc + unit(j)) % 999983;\n"
         "  P(done);\n"
         "  print(acc);\n"
         "}\n";
}

// Golden fixture: a session over the unit-walk shape. The walk passes
// dozens of unexpanded calls, expands one well after the fragment was
// built (its label keeps the creation-time "[not expanded]" text), and
// walks inside it.
TEST(ControllerTest, GoldenUnitWalkSession) {
  Ran R = runProgram(unitWalkProgram(), 3);
  ASSERT_TRUE(R.Prog);
  PpdController C(*R.Prog, std::move(R.Log));
  DebugSession S(*R.Prog, C);
  std::string Out = S.execute("where 0");
  for (int I = 0; I != 12; ++I)
    Out += S.execute("back");
  Out += S.execute("where 1");
  for (int I = 0; I != 12; ++I)
    Out += S.execute("back");

  std::vector<DynNodeId> Skipped;
  for (DynNodeId Id = 0; Id != C.graph().numNodes(); ++Id)
    if (C.graph().node(Id).Kind == DynNodeKind::SubGraph &&
        !C.graph().node(Id).Expanded)
      Skipped.push_back(Id);
  ASSERT_GE(Skipped.size(), 40u);
  DynNodeId Late = Skipped[Skipped.size() / 3];
  Out += S.execute("expand " + std::to_string(Late));
  Out += S.execute("node " + std::to_string(Late));
  Out += S.execute("node " + std::to_string(C.graph().numNodes() - 1));
  for (int I = 0; I != 6; ++I)
    Out += S.execute("back");
  Out += S.execute("graphdot");
  EXPECT_NE(Out.find("unit(...)  [not expanded]"), std::string::npos);
  uint64_t Hash = fnv1a(Out);
  EXPECT_EQ(Hash, 0x050d1499fc8ba6c9ull) << "unit walk session drifted; actual 0x"
                          << std::hex << Hash;
}

// Property: flowing back from the final print of a sequential compute
// chain reaches the initial constant through the expected number of hops.
class FlowbackDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowbackDepthTest, ChainDepthMatches) {
  int N = GetParam();
  std::string Source = "func main() {\n  int v0 = 1;\n";
  for (int I = 1; I <= N; ++I)
    Source += "  int v" + std::to_string(I) + " = v" +
              std::to_string(I - 1) + " + " + std::to_string(I) + ";\n";
  Source += "  print(v" + std::to_string(N) + ");\n}\n";

  auto R = runProgram(Source);
  PpdController C(*R.Prog, std::move(R.Log));
  DynNodeId Node = C.startAtLastEvent(0);
  ASSERT_NE(Node, InvalidId);

  int Hops = 0;
  for (;;) {
    DynNodeId Prev = InvalidId;
    for (const DynEdge &E : C.dependencesOf(Node))
      if (E.Kind == DynEdgeKind::Data &&
          C.graph().node(E.From).Kind == DynNodeKind::Singular)
        Prev = E.From;
    if (Prev == InvalidId)
      break;
    Node = Prev;
    ++Hops;
  }
  EXPECT_EQ(Hops, N + 1) << "print → vN → ... → v0";
  EXPECT_EQ(C.graph().node(Node).Value, 1);
}

INSTANTIATE_TEST_SUITE_P(Depths, FlowbackDepthTest,
                         ::testing::Values(1, 2, 5, 10, 25));

} // namespace
