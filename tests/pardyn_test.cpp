//===- tests/pardyn_test.cpp - Parallel dynamic graph & races -------------===//
//
// Part of PPD test suite: Fig 6.1 structure, happens-before ordering,
// Defs 6.1–6.4 race detection, algorithm agreement (E5).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/DebugSession.h"
#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "pardyn/ParallelDynamicGraph.h"
#include "pardyn/RaceDetector.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ppd;
using namespace ppd::test;

namespace {

ParallelDynamicGraph graphOf(const Ran &R) {
  return ParallelDynamicGraph(R.Log, R.Prog->Symbols->NumSharedVars);
}

TEST(ParallelGraphTest, NodesAndInternalEdges) {
  auto R = runProgram(R"(
sem s;
func main() {
  V(s);
  P(s);
}
)");
  auto G = graphOf(R);
  ASSERT_EQ(G.numProcs(), 1u);
  // ProcStart, V, P, ProcEnd.
  ASSERT_EQ(G.nodes(0).size(), 4u);
  EXPECT_EQ(int(G.nodes(0)[0].Kind), int(SyncKind::ProcStart));
  EXPECT_EQ(int(G.nodes(0)[1].Kind), int(SyncKind::SemSignal));
  EXPECT_EQ(int(G.nodes(0)[2].Kind), int(SyncKind::SemAcquire));
  EXPECT_EQ(int(G.nodes(0)[3].Kind), int(SyncKind::ProcEnd));
  EXPECT_EQ(G.edges(0).size(), 3u);
}

TEST(ParallelGraphTest, SameProcessVPGetsNoEdgeByConvention) {
  // §6.2.1: "we do not construct a synchronization edge ... if the V and P
  // operation are done by the same process."
  auto R = runProgram("sem s;\nfunc main() { V(s); P(s); }");
  auto G = graphOf(R);
  EXPECT_EQ(G.nodes(0)[2].PartnerSeq, NoPartner);
}

TEST(ParallelGraphTest, CrossProcessVPEdge) {
  auto R = runProgram(R"(
sem s;
chan done;
func child() { P(s); send(done, 1); }
func main() {
  spawn child();
  V(s);
  int x = recv(done);
}
)");
  auto G = graphOf(R);
  // Child's P partners main's V.
  const SyncNode *ChildP = nullptr;
  uint32_t ChildPIdx = 0;
  for (uint32_t I = 0; I != G.nodes(1).size(); ++I)
    if (G.nodes(1)[I].Kind == SyncKind::SemAcquire) {
      ChildP = &G.nodes(1)[I];
      ChildPIdx = I;
    }
  ASSERT_NE(ChildP, nullptr);
  SyncNodeRef Partner = G.partnerOf({1, ChildPIdx});
  ASSERT_TRUE(Partner.valid());
  EXPECT_EQ(Partner.Pid, 0u);
  EXPECT_EQ(int(G.node(Partner).Kind), int(SyncKind::SemSignal));
}

TEST(ParallelGraphTest, BlockingSendProducesFig61Shape) {
  // Fig 6.1: blocking send n3 (sender), receive n4, unblock n5; the
  // sender's internal edge e4 between n3 and n5 contains zero events.
  // Whether the sender actually blocks (rather than handing off to an
  // already-waiting receiver) depends on the schedule, so sweep seeds for
  // an instance where it does.
  const char *Source = R"(
chan c;
func sender() { send(c, 9); }
func main() {
  spawn sender();
  int busy = 0;
  int i = 0;
  for (i = 0; i < 20; i = i + 1) busy = busy + i;
  int v = recv(c);
  print(v + busy * 0);
}
)";
  Ran R;
  bool FoundBlockingInstance = false;
  for (uint64_t Seed = 1; Seed <= 40 && !FoundBlockingInstance; ++Seed) {
    R = runProgram(Source, Seed);
    for (const LogRecord &Rec : R.Log.Procs[1].Records)
      if (Rec.Kind == LogRecordKind::SyncEvent &&
          Rec.Sync == SyncKind::ChanSendUnblock)
        FoundBlockingInstance = true;
  }
  ASSERT_TRUE(FoundBlockingInstance)
      << "no schedule in the sweep blocked the sender";
  auto G = graphOf(R);
  // Sender (pid 1): ProcStart, ChanSend, ChanSendUnblock, ProcEnd.
  std::vector<SyncKind> Kinds;
  for (const SyncNode &N : G.nodes(1))
    Kinds.push_back(N.Kind);
  EXPECT_EQ(Kinds,
            (std::vector<SyncKind>{SyncKind::ProcStart, SyncKind::ChanSend,
                                   SyncKind::ChanSendUnblock,
                                   SyncKind::ProcEnd}));

  // recv partners the send; unblock partners the recv.
  uint32_t RecvIdx = InvalidId;
  for (uint32_t I = 0; I != G.nodes(0).size(); ++I)
    if (G.nodes(0)[I].Kind == SyncKind::ChanRecv)
      RecvIdx = I;
  ASSERT_NE(RecvIdx, InvalidId);
  SyncNodeRef SendRef = G.partnerOf({0, RecvIdx});
  ASSERT_TRUE(SendRef.valid());
  EXPECT_EQ(int(G.node(SendRef).Kind), int(SyncKind::ChanSend));
  SyncNodeRef UnblockPartner = G.partnerOf({1, 2});
  ASSERT_TRUE(UnblockPartner.valid());
  EXPECT_EQ(UnblockPartner.Pid, 0u);
  EXPECT_EQ(UnblockPartner.Index, RecvIdx);

  // e4 (between send and unblock) carries no shared accesses.
  const InternalEdge &E4 = G.edge({1, 2});
  EXPECT_TRUE(E4.Reads.empty());
  EXPECT_TRUE(E4.Writes.empty());

  // The DOT output renders per-process clusters and dashed sync edges.
  std::string Dot = G.dot(*R.Prog->Ast);
  EXPECT_NE(Dot.find("cluster_p0"), std::string::npos);
  EXPECT_NE(Dot.find("cluster_p1"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
}

TEST(ParallelGraphTest, HappensBeforeIsStrictPartialOrder) {
  auto R = runProgram(R"(
sem a;
sem b;
chan done;
func child() { P(a); V(b); send(done, 1); }
func main() {
  spawn child();
  V(a);
  P(b);
  int x = recv(done);
}
)");
  auto G = graphOf(R);
  std::vector<SyncNodeRef> All;
  for (uint32_t Pid = 0; Pid != G.numProcs(); ++Pid)
    for (uint32_t I = 0; I != G.nodes(Pid).size(); ++I)
      All.push_back({Pid, I});

  for (const SyncNodeRef &X : All) {
    EXPECT_FALSE(G.happensBefore(X, X)) << "irreflexive";
    for (const SyncNodeRef &Y : All) {
      if (G.happensBefore(X, Y)) {
        EXPECT_FALSE(G.happensBefore(Y, X)) << "antisymmetric";
      }
      for (const SyncNodeRef &Z : All)
        if (G.happensBefore(X, Y) && G.happensBefore(Y, Z)) {
          EXPECT_TRUE(G.happensBefore(X, Z)) << "transitive";
        }
    }
  }

  // Program order within a process.
  for (uint32_t Pid = 0; Pid != G.numProcs(); ++Pid)
    for (uint32_t I = 1; I < G.nodes(Pid).size(); ++I)
      EXPECT_TRUE(G.happensBefore({Pid, I - 1}, {Pid, I}));

  // Causality across the V(a) → P(a) pair.
  // main's V(a) is node 2 (ProcStart, Spawn, V); child's P(a) is node 1.
  EXPECT_TRUE(G.happensBefore({0, 2}, {1, 1}));
  EXPECT_FALSE(G.happensBefore({1, 1}, {0, 2}));
}

//===----------------------------------------------------------------------===//
// Query indexes vs brute-force scans
//===----------------------------------------------------------------------===//

// The reverse-partner index, the writer index behind writersBefore, and
// edgeContaining's binary search must answer exactly what a scan of every
// node or edge answers. The scans live here only.

std::string str(SyncNodeRef R) {
  return "(" + std::to_string(R.Pid) + "," + std::to_string(R.Index) + ")";
}

std::string str(EdgeRef R) {
  return R.valid() ? "(" + std::to_string(R.Pid) + "," +
                         std::to_string(R.EndNode) + ")"
                   : "none";
}

template <typename T> std::string str(const std::vector<T> &V) {
  std::string Out;
  for (const T &X : V)
    Out += str(X);
  return Out.empty() ? "none" : Out;
}

/// Every node whose partner is \p Ref.
std::vector<SyncNodeRef> dependentsByScan(const ParallelDynamicGraph &G,
                                          SyncNodeRef Ref) {
  std::vector<SyncNodeRef> Out;
  for (uint32_t Pid = 0; Pid != G.numProcs(); ++Pid)
    for (uint32_t I = 0; I != G.nodes(Pid).size(); ++I)
      if (G.partnerOf({Pid, I}) == Ref)
        Out.push_back({Pid, I});
  return Out;
}

/// The edge of \p Pid whose record span holds \p RecordIdx, by a walk.
EdgeRef edgeContainingByScan(const ParallelDynamicGraph &G, uint32_t Pid,
                             uint32_t RecordIdx) {
  const std::vector<SyncNode> &Nodes = G.nodes(Pid);
  for (uint32_t I = 1; I < Nodes.size(); ++I)
    if (RecordIdx > Nodes[I - 1].RecordIdx && RecordIdx <= Nodes[I].RecordIdx)
      return {Pid, I};
  if (Nodes.size() >= 2 && RecordIdx > Nodes.back().RecordIdx)
    return {Pid, uint32_t(Nodes.size() - 1)};
  return EdgeRef();
}

/// Writers of \p SharedIdx ordered before \p Reader, latest first, and the
/// simultaneous writer with the largest (pid, end node) as \p Witness —
/// every edge classified by the pairwise Def 6.1 queries.
std::vector<EdgeRef> writersByScan(const ParallelDynamicGraph &G,
                                   EdgeRef Reader, uint32_t SharedIdx,
                                   EdgeRef &Witness) {
  Witness = EdgeRef();
  std::vector<EdgeRef> Out;
  for (EdgeRef E : G.allEdges()) {
    if (!G.edge(E).Writes.contains(SharedIdx) || E == Reader)
      continue;
    if (E.Pid == Reader.Pid ? E.EndNode < Reader.EndNode
                            : G.edgeHappensBefore(E, Reader))
      Out.push_back(E);
    else if (G.simultaneous(E, Reader))
      Witness = E;
  }
  std::sort(Out.begin(), Out.end(), [&](EdgeRef A, EdgeRef B) {
    return G.nodes(A.Pid)[A.EndNode].Seq > G.nodes(B.Pid)[B.EndNode].Seq;
  });
  return Out;
}

/// The first disagreement between an index-backed query of \p G and its
/// scan, or "" when there is none. Every node, every record position
/// (and a few past the end), every (reader edge, variable) pair.
std::string indexMismatch(const ParallelDynamicGraph &G, unsigned NumShared) {
  for (uint32_t Pid = 0; Pid != G.numProcs(); ++Pid) {
    const std::vector<SyncNode> &Nodes = G.nodes(Pid);
    for (uint32_t I = 0; I != Nodes.size(); ++I) {
      std::span<const SyncNodeRef> Got = G.dependentsOf({Pid, I});
      std::vector<SyncNodeRef> Want = dependentsByScan(G, {Pid, I});
      if (!std::equal(Got.begin(), Got.end(), Want.begin(), Want.end()))
        return "dependentsOf" + str(SyncNodeRef{Pid, I}) + ": " +
               str(std::vector<SyncNodeRef>(Got.begin(), Got.end())) +
               " vs scan " + str(Want);
    }
    uint32_t Past = Nodes.empty() ? 2 : Nodes.back().RecordIdx + 3;
    for (uint32_t R = 0; R != Past; ++R)
      if (!(G.edgeContaining(Pid, R) == edgeContainingByScan(G, Pid, R)))
        return "edgeContaining(" + std::to_string(Pid) + "," +
               std::to_string(R) + "): " + str(G.edgeContaining(Pid, R)) +
               " vs scan " + str(edgeContainingByScan(G, Pid, R));
  }
  for (EdgeRef Reader : G.allEdges())
    for (uint32_t S = 0; S <= NumShared; ++S) {
      EdgeRef Witness;
      std::vector<EdgeRef> Want = writersByScan(G, Reader, S, Witness);
      ParallelDynamicGraph::WriterCursor Cursor = G.writersBefore(Reader, S);
      std::vector<EdgeRef> Got;
      for (EdgeRef W = Cursor.next(); W.valid(); W = Cursor.next())
        Got.push_back(W);
      std::string Where = "writersBefore(" + str(Reader) + ", v" +
                          std::to_string(S) + ")";
      if (Got != Want)
        return Where + ": " + str(Got) + " vs scan " + str(Want);
      if (!(Cursor.raceWitness() == Witness))
        return Where + " witness: " + str(Cursor.raceWitness()) +
               " vs scan " + str(Witness);
    }
  return "";
}

/// Rebuilds \p Log's graph the way live attach does: a consistent cut at
/// every \p Stride-th sequence number, each applied with appendProcess +
/// finalizeTail and checked against the scans before the next.
ParallelDynamicGraph streamedGraph(const ExecutionLog &Log,
                                   unsigned NumShared, uint64_t Stride,
                                   const std::string &Label) {
  ParallelDynamicGraph G(NumShared, 0);
  std::vector<ProcessLog> Accum(Log.Procs.size());
  std::vector<uint32_t> Next(Log.Procs.size(), 0);
  uint64_t MaxSeq = 0;
  for (const ProcessLog &PL : Log.Procs)
    for (size_t I = 0; I != PL.Records.size(); ++I)
      if (PL.Records[I].Kind == LogRecordKind::SyncEvent)
        MaxSeq = std::max(MaxSeq, PL.Records[I].Seq);
  for (uint64_t Cut = Stride;; Cut += Stride) {
    const bool Last = Cut > MaxSeq;
    for (uint32_t Pid = 0; Pid != Log.Procs.size(); ++Pid) {
      const RecordSeq &Records = Log.Procs[Pid].Records;
      const uint32_t From = Next[Pid];
      // Everything before the process's first sync record at or past
      // the cut: partners log before dependents, so the cut is closed.
      while (Next[Pid] < Records.size() &&
             (Last || Records[Next[Pid]].Kind != LogRecordKind::SyncEvent ||
              Records[Next[Pid]].Seq < Cut))
        Accum[Pid].Records.push_back(Records[Next[Pid]++]);
      G.appendProcess(Pid, Accum[Pid], From);
    }
    EXPECT_TRUE(G.finalizeTail()) << Label << " cut at seq " << Cut;
    EXPECT_EQ(indexMismatch(G, NumShared), "")
        << Label << " after the cut at seq " << Cut;
    if (Last)
      return G;
  }
}

/// Batch, streamed, and `.ppdb`-adopted builds of one run's graph must
/// all answer every indexed query like the scans.
void expectIndexesMatchScans(const Ran &R, const std::string &Label) {
  ASSERT_TRUE(R.Prog != nullptr) << Label;
  const unsigned NumShared = R.Prog->Symbols->NumSharedVars;
  ParallelDynamicGraph Batch(R.Log, NumShared);
  EXPECT_EQ(indexMismatch(Batch, NumShared), "") << Label << " (batch)";
  for (uint64_t Stride : {1u, 5u})
    streamedGraph(R.Log, NumShared, Stride,
                  Label + " (streamed, stride " + std::to_string(Stride) +
                      ")");

  ScopedTempDir TmpDir;
  std::string Path = TmpDir.file("graph.log");
  ASSERT_TRUE(R.Log.save(Path)) << Label;
  std::string Error;
  auto Store = PageStore::open(Path, &Error);
  ASSERT_TRUE(Store != nullptr) << Label << ": " << Error;
  std::string DbPath = programDbPathFor(Path);
  ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Store, LogIndex(*Store)))
      << Label;
  std::shared_ptr<const LogIndex> Index;
  std::shared_ptr<const ParallelDynamicGraph> Adopted;
  ASSERT_EQ(int(readProgramDb(DbPath, *R.Prog, *Store, Index, &Adopted)),
            int(ProgramDbStatus::Ok))
      << Label;
  EXPECT_EQ(indexMismatch(*Adopted, NumShared), "") << Label << " (.ppdb)";
}

TEST(GraphIndexTest, ExamplesCorpusMatchesScans) {
  for (const char *Name : Corpus)
    for (uint64_t Seed : {1u, 4u}) {
      Ran R = runProgram(readCorpusFile(Name), Seed, {}, {},
                         /*ExpectCompleted=*/false);
      expectIndexesMatchScans(R, std::string(Name) + " seed " +
                                     std::to_string(Seed));
    }
}

TEST(GraphIndexTest, GeneratedSyncAndRacyProgramsMatchScans) {
  using namespace ppd::testing;
  for (GenProfile Profile : {GenProfile::SyncHeavy, GenProfile::Racy})
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      GenOptions Options;
      Options.Profile = Profile;
      GenProgram Gen = generateProgram(Seed, Options);
      MachineOptions MOpts;
      MOpts.Quantum = Gen.Quantum;
      Ran R = runProgram(Gen.render(), Gen.SchedSeed, MOpts, {},
                         /*ExpectCompleted=*/false);
      expectIndexesMatchScans(R, std::string(genProfileName(Profile)) +
                                     " seed " + std::to_string(Seed));
    }
}

// A read between two writers of the same process, simultaneous writers in
// two other processes: the cursor must skip the later same-process writer
// and name the higher-pid simultaneous writer as the witness.
TEST(GraphIndexTest, WitnessIsLargestSimultaneousWriter) {
  auto R = runProgram(R"(
shared int sv;
sem go;
chan done;
func w(int x) { sv = x; send(done, 1); }
func main() {
  sv = 1;
  V(go);
  spawn w(2);
  spawn w(3);
  int y = sv;
  P(go);
  sv = 4;
  int a = recv(done);
  int b = recv(done);
}
)");
  auto G = graphOf(R);
  uint32_t Sv = R.Prog->Symbols->var(varNamed(*R.Prog->Symbols, "sv"))
                    .SharedIndex;
  // main's edges: ProcStart→V, V→spawn, spawn→spawn, spawn→P (reads sv),
  // P→recv (writes sv), ...
  EdgeRef Reader{0, 4};
  ASSERT_TRUE(G.edge(Reader).Reads.contains(Sv));
  ParallelDynamicGraph::WriterCursor Cursor = G.writersBefore(Reader, Sv);
  EXPECT_EQ(str(Cursor.raceWitness()), "(2,1)");
  EXPECT_EQ(str(Cursor.next()), "(0,1)");
  EXPECT_FALSE(Cursor.next().valid());
  EXPECT_EQ(indexMismatch(G, R.Prog->Symbols->NumSharedVars), "");
}

//===----------------------------------------------------------------------===//
// Race detection
//===----------------------------------------------------------------------===//

const char *RacyProgram = R"(
shared int sv;
chan done;
func w(int x) { sv = sv + x; send(done, 1); }
func main() {
  spawn w(1);
  spawn w(2);
  int a = recv(done);
  int b = recv(done);
  print(sv);
}
)";

const char *SynchronizedProgram = R"(
shared int sv;
sem m = 1;
chan done;
func w(int x) { P(m); sv = sv + x; V(m); send(done, 1); }
func main() {
  spawn w(1);
  spawn w(2);
  int a = recv(done);
  int b = recv(done);
  print(sv);
}
)";

TEST(RaceTest, UnsynchronizedWritesDetected) {
  auto R = runProgram(RacyProgram);
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  auto Result = Detector.detect();
  EXPECT_FALSE(Result.raceFree());
  bool SawWriteWrite = false;
  for (const Race &Race : Result.Races) {
    EXPECT_EQ(R.Prog->Symbols->var(Race.Var).Name, "sv");
    SawWriteWrite |= Race.Kind == RaceKind::WriteWrite;
  }
  EXPECT_TRUE(SawWriteWrite);
  std::string Text = Detector.describe(Result.Races[0], *R.Prog->Ast);
  EXPECT_NE(Text.find("race on shared variable 'sv'"), std::string::npos);
}

TEST(RaceTest, MutexedProgramRaceFree) {
  for (uint64_t Seed : {1, 7, 31}) {
    auto R = runProgram(SynchronizedProgram, Seed);
    auto G = graphOf(R);
    RaceDetector Detector(G, *R.Prog->Symbols);
    EXPECT_TRUE(Detector.detect().raceFree())
        << "seed " << Seed;
  }
}

TEST(RaceTest, ReadWriteRaceDetected) {
  auto R = runProgram(R"(
shared int sv;
chan done;
func writer() { sv = 42; send(done, 1); }
func reader() { int x = sv; send(done, x); }
func main() {
  spawn writer();
  spawn reader();
  int a = recv(done);
  int b = recv(done);
}
)");
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  auto Result = Detector.detect();
  ASSERT_FALSE(Result.raceFree());
  EXPECT_EQ(int(Result.Races[0].Kind), int(RaceKind::ReadWrite));
}

// The failing process's accesses since its last sync node reach race
// detection as a terminal Stopped node, like every frozen process's. The
// worker reads ga and then fails on ga[20]; main's unsynchronized write of
// ga races with that read. Replay never reaches the extra node, so the
// flowback root and its local dependences are what they were without it.
TEST(RaceTest, FailedProcessFinalEdgeIsRaceChecked) {
  const char *Source = R"(
shared int ga[4];
sem join;
func worker(int a) {
  int w = 0;
  while (w < 20) {
    w = w + 1;
  }
  a = ga[1] + ga[a];
  V(join);
}
func main() {
  spawn worker(20);
  ga[1] = 5;
  P(join);
}
)";
  for (uint64_t Seed : {1, 2, 3}) {
    auto R = runProgram(Source, Seed, {}, {}, /*ExpectCompleted=*/false);
    ASSERT_EQ(int(R.Result.Outcome), int(RunResult::Status::Failed));
    ASSERT_EQ(R.Result.Error.Pid, 1u);
    const RecordSeq &Failed = R.Log.Procs[1].Records;
    ASSERT_FALSE(Failed.empty());
    EXPECT_EQ(int(Failed.back().Sync), int(SyncKind::Stopped));

    auto G = graphOf(R);
    RaceDetector Detector(G, *R.Prog->Symbols);
    auto Result = Detector.detect();
    ASSERT_EQ(Result.Races.size(), 1u) << "seed " << Seed;
    EXPECT_EQ(int(Result.Races[0].Kind), int(RaceKind::ReadWrite));
    EXPECT_EQ(R.Prog->Symbols->var(Result.Races[0].Var).Name, "ga");
    EXPECT_EQ(Result.Races[0].Second.Pid, 1u);

    // Flowback over the log as it was before the failed process got its
    // terminal node: the same root and local dependences. Only the read
    // of ga's cross-process source changes — from the initial value,
    // which the read did not see, to the race with main's write.
    ExecutionLog Trimmed = R.Log;
    RecordSeq Kept;
    for (size_t I = 0; I + 1 < Failed.size(); ++I)
      Kept.push_back(Failed[I]);
    Trimmed.Procs[1].Records = std::move(Kept);
    PpdController WithNode(*R.Prog, R.Log);
    PpdController WithoutNode(*R.Prog, std::move(Trimmed));
    DebugSession A(*R.Prog, WithNode), B(*R.Prog, WithoutNode);
    std::string Now = A.execute("where 1"), Before = B.execute("where 1");
    size_t Cross = Now.find("<- cross");
    ASSERT_NE(Cross, std::string::npos) << Now;
    EXPECT_EQ(Now.substr(0, Cross), Before.substr(0, Cross));
    EXPECT_NE(Now.find("a = ga[1] + ga[a]"), std::string::npos) << Now;
    EXPECT_NE(Now.find("RACE on ga (p0)", Cross), std::string::npos) << Now;
    EXPECT_NE(Before.find("initial ga", Cross), std::string::npos) << Before;
  }
}

TEST(RaceTest, OrderedAccessesAreNotRaces) {
  // The V/P ordering makes the accesses sequential, not simultaneous.
  auto R = runProgram(R"(
shared int sv;
sem ready;
chan done;
func child() { P(ready); sv = sv * 2; send(done, 1); }
func main() {
  spawn child();
  sv = 21;
  V(ready);
  int x = recv(done);
  print(sv);
}
)");
  EXPECT_EQ(R.PrintedValues, (std::vector<int64_t>{42}));
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  EXPECT_TRUE(Detector.detect().raceFree());
}

// Property: across seeds, the racy program always shows the race (it's a
// property of the program structure here — both workers write sv between
// independent sync points), and the mutexed one never does.
class RaceSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RaceSweepTest, GroundTruthStableAcrossSchedules) {
  auto Racy = runProgram(RacyProgram, GetParam());
  auto RacyGraph = graphOf(Racy);
  RaceDetector RacyDetector(RacyGraph, *Racy.Prog->Symbols);
  EXPECT_FALSE(RacyDetector.detect().raceFree());

  auto Safe = runProgram(SynchronizedProgram, GetParam());
  auto SafeGraph = graphOf(Safe);
  RaceDetector SafeDetector(SafeGraph, *Safe.Prog->Symbols);
  EXPECT_TRUE(SafeDetector.detect().raceFree());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaceSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));


TEST(RaceTest, SummaryGroupsPerIterationRaces) {
  // A loop races on the same statement pair many times; the grouped
  // summary collapses them with a count.
  auto R = runProgram(R"(
shared int sv;
sem tick;
chan done;
func writer() {
  int i = 0;
  for (i = 0; i < 10; i = i + 1) {
    sv = sv + 1;
    V(tick);
  }
  send(done, 1);
}
func reader() {
  int i = 0;
  int acc = 0;
  for (i = 0; i < 10; i = i + 1) {
    P(tick);
    acc = acc + sv;
  }
  send(done, acc);
}
func main() {
  spawn writer();
  spawn reader();
  int a = recv(done);
  int b = recv(done);
}
)");
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  auto Result = Detector.detect();
  ASSERT_FALSE(Result.raceFree());
  std::string Summary = Detector.summarize(Result, *R.Prog->Ast);
  // Many races, few summary lines, each with an occurrence count.
  EXPECT_GT(Result.Races.size(), 3u);
  unsigned Lines = 0;
  for (char C : Summary)
    Lines += C == '\n';
  EXPECT_LT(Lines, Result.Races.size());
  EXPECT_NE(Summary.find("(x"), std::string::npos);
  EXPECT_NE(Summary.find("sv"), std::string::npos);
}

TEST(RaceTest, SummaryOfCleanInstance) {
  auto R = runProgram("func main() { print(1); }");
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  auto Result = Detector.detect();
  EXPECT_NE(Detector.summarize(Result, *R.Prog->Ast).find("race-free"),
            std::string::npos);
}

} // namespace
