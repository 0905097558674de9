//===- tests/paged_test.cpp - Paged log store tier ------------------------===//
//
// Part of PPD test suite.
//
// The paged log tier (PageStore + BufferPool + ProgramDb) must answer
// the same whatever the backing and the pool budget: a debugging session
// over a file store under a starved pool answers every query with the
// same bytes as one over the run's log (an in-memory store under an
// unbounded pool). This suite drives those differentials across the
// examples/ corpus × seeds under an eviction-forcing budget, pins the
// eviction/pinning contract of the pool directly (pinned frames never
// evicted, single decode under concurrent faults), validates the skim-built index against
// the decoded one, round-trips the `.ppdb` sidecar through staleness and
// every-byte truncation, checks that the program fingerprint is
// deterministic and sees every operand bit, that a store opens only the
// current format version, and that a log cut, rewritten or corrupted
// under a store gives a typed error — never a signal.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Controller.h"
#include "core/DebugSession.h"
#include "log/BufferPool.h"
#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "pardyn/ParallelDynamicGraph.h"
#include "testing/ProgramGen.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ppd;
using namespace ppd::test;

namespace {

/// Four processes (main + three workers): enough distinct sections to
/// exercise eviction and concurrent fault-in.
const char *const FourProcSource = R"(
shared int total;
chan done;
func worker(int n) {
  int i = 0;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    acc = acc + i;
    total = total + 1;
  }
  send(done, acc);
}
func main() {
  spawn worker(8);
  spawn worker(12);
  spawn worker(16);
  int a = recv(done);
  int b = recv(done);
  int c = recv(done);
  print(a + b + c);
}
)";

/// Saves \p Log as v2 and opens it as a paged store.
std::shared_ptr<const PageStore> saveAndOpen(const ExecutionLog &Log,
                                             const std::string &Path) {
  EXPECT_TRUE(Log.save(Path));
  std::string Error;
  auto Store = PageStore::open(Path, &Error);
  EXPECT_TRUE(Store != nullptr) << Error;
  return Store;
}

void expectIndexEqual(const LogIndex &A, const LogIndex &B,
                      const std::string &Label) {
  ASSERT_EQ(A.numProcs(), B.numProcs()) << Label;
  for (uint32_t Pid = 0; Pid != A.numProcs(); ++Pid) {
    const std::vector<LogInterval> &IA = A.intervals(Pid);
    const std::vector<LogInterval> &IB = B.intervals(Pid);
    ASSERT_EQ(IA.size(), IB.size()) << Label << " pid " << Pid;
    for (size_t I = 0; I != IA.size(); ++I) {
      EXPECT_EQ(IA[I].Index, IB[I].Index) << Label;
      EXPECT_EQ(IA[I].EBlock, IB[I].EBlock) << Label;
      EXPECT_EQ(IA[I].PrelogRecord, IB[I].PrelogRecord) << Label;
      EXPECT_EQ(IA[I].PostlogRecord, IB[I].PostlogRecord) << Label;
      EXPECT_EQ(IA[I].Parent, IB[I].Parent) << Label;
      EXPECT_EQ(IA[I].Depth, IB[I].Depth) << Label;
      EXPECT_EQ(IA[I].ExitsFunction, IB[I].ExitsFunction) << Label;
    }
    EXPECT_EQ(A.openIntervals(Pid), B.openIntervals(Pid))
        << Label << " pid " << Pid;
  }
}

std::vector<uint8_t> readFileRaw(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFileRaw(const std::string &Path, const uint8_t *Data,
                  size_t Size) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Data), std::streamsize(Size));
  ASSERT_TRUE(Out.good()) << Path;
}

/// 64-bit FNV-1a over \p Bytes: a stable fingerprint for pinning file
/// contents.
uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Bytes)
    H = (H ^ B) * 0x100000001b3ull;
  return H;
}

//===----------------------------------------------------------------------===//
// Pooled-vs-whole differentials
//===----------------------------------------------------------------------===//

// The main oracle: the same debug-session script over the same log must
// produce byte-identical answers whether the log was decoded whole up
// front or faulted in section by section through an 8 KiB pool — a budget
// small enough that multi-process logs evict sections mid-session.
TEST(PagedTest, SessionMatchesWholeLoadAcrossCorpusAndSeeds) {
  ScopedTempDir TmpDir;
  const char *Script[] = {"where 0", "back",  "back",        "fwd",
                          "where 1", "back",  "races",       "restore 0 1",
                          "node 3",  "where 0"};
  int FileIdx = 0;
  for (const char *Name : Corpus) {
    std::string Source = readCorpusFile(Name);
    for (uint64_t Seed : {1, 5, 11}) {
      Ran R = runProgram(Source, Seed, {}, {}, /*ExpectCompleted=*/false);
      ASSERT_TRUE(R.Prog != nullptr);
      std::string Label =
          std::string(Name) + " seed " + std::to_string(Seed);
      std::string Path =
          TmpDir.file("corpus_" + std::to_string(FileIdx++) + ".log");
      auto Store = saveAndOpen(R.Log, Path);
      ASSERT_TRUE(Store != nullptr);

      ExecutionLog Loaded;
      ASSERT_TRUE(ExecutionLog::load(Path, Loaded)) << Label;
      PpdController Whole(*R.Prog, std::move(Loaded));
      DebugSession WholeSession(*R.Prog, Whole);

      auto Pool = std::make_shared<BufferPool>(size_t(8) << 10);
      PpdController Paged(*R.Prog, PagedLog{Store, Pool});
      DebugSession PagedSession(*R.Prog, Paged);

      EXPECT_EQ(Whole.numProcs(), Paged.numProcs())
          << Label;
      for (const char *Cmd : Script)
        EXPECT_EQ(WholeSession.execute(Cmd), PagedSession.execute(Cmd))
            << Label << " cmd '" << Cmd << "'";
    }
  }
}

// The skim-built index (no record bodies decoded) must equal the index
// derived from fully decoded records, and the store's section headers and
// output trailer must carry the same headers and output as the real log.
TEST(PagedTest, SkimIndexAndFacadeMatchDecodedLog) {
  ScopedTempDir TmpDir;
  for (const char *Name : Corpus) {
    std::string Source = readCorpusFile(Name);
    Ran R = runProgram(Source, 7, {}, {}, /*ExpectCompleted=*/false);
    ASSERT_TRUE(R.Prog != nullptr);
    std::string Path = TmpDir.file(std::string("skim_") + Name + ".log");
    auto Store = saveAndOpen(R.Log, Path);
    ASSERT_TRUE(Store != nullptr);

    LogIndex Decoded(R.Log);
    LogIndex Skimmed(*Store);
    expectIndexEqual(Decoded, Skimmed, Name);

    ASSERT_EQ(Store->numProcs(), R.Log.Procs.size()) << Name;
    for (uint32_t Pid = 0; Pid != R.Log.Procs.size(); ++Pid) {
      const PageStore::SectionMeta &M = Store->section(Pid);
      EXPECT_EQ(M.Pid, R.Log.Procs[Pid].Pid);
      EXPECT_EQ(M.RootFunc, R.Log.Procs[Pid].RootFunc);
      EXPECT_EQ(M.Args, R.Log.Procs[Pid].Args);
      EXPECT_EQ(M.PrelogCount, R.Log.Procs[Pid].PrelogCount);
      EXPECT_EQ(M.NumRecords, R.Log.Procs[Pid].Records.size());
    }
    const std::vector<OutputRecord> &Output = Store->output();
    ASSERT_EQ(Output.size(), R.Log.Output.size()) << Name;
    for (size_t I = 0; I != Output.size(); ++I) {
      EXPECT_EQ(Output[I].Pid, R.Log.Output[I].Pid);
      EXPECT_EQ(Output[I].Value, R.Log.Output[I].Value);
      EXPECT_EQ(Output[I].Stmt, R.Log.Output[I].Stmt);
    }
  }
}

//===----------------------------------------------------------------------===//
// BufferPool eviction and concurrency
//===----------------------------------------------------------------------===//

// A one-byte budget forces eviction on every unpinned insert, but pinned
// frames must survive any pressure and keep serving correct bytes.
TEST(PagedTest, EvictionUnderPressureNeverDropsPinnedFrames) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(FourProcSource, 3);
  ASSERT_TRUE(R.Prog != nullptr);
  ASSERT_EQ(R.Log.Procs.size(), size_t(4));
  std::string Path = TmpDir.file("evict.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);

  BufferPool Pool(/*BudgetBytes=*/1, /*NumShards=*/1);
  BufferPool::Pin P0 = Pool.pin(*Store, 0);
  ASSERT_TRUE(P0);
  // Insert the remaining sections while section 0 stays pinned: the pool
  // is over budget the whole time, yet the pinned frame must survive.
  for (uint32_t Pid = 1; Pid != 4; ++Pid) {
    BufferPool::Pin P = Pool.pin(*Store, Pid);
    ASSERT_TRUE(P);
    EXPECT_EQ(P.log().Records.size(), Store->section(Pid).NumRecords);
  }
  EXPECT_EQ(P0.log().Records.size(), Store->section(0).NumRecords);
  BufferPoolStats S = Pool.stats();
  EXPECT_GT(S.Evictions, uint64_t(0));
  EXPECT_GT(S.BytesPinned, uint64_t(0));
  EXPECT_EQ(S.Misses, uint64_t(4));

  // Re-pinning section 0 is a hit — pinned frames were never evicted.
  BufferPool::Pin Again = Pool.pin(*Store, 0);
  ASSERT_TRUE(Again);
  EXPECT_EQ(Pool.stats().Hits, S.Hits + 1);

  // Once every pin drops, the pool is back within its budget: releasing
  // the last pin on an over-budget shard runs its eviction pass.
  P0 = BufferPool::Pin();
  Again = BufferPool::Pin();
  BufferPoolStats Final = Pool.stats();
  EXPECT_EQ(Final.BytesPinned, uint64_t(0));
  EXPECT_LE(Final.BytesResident, Final.Budget);
}

// With room for everything, concurrent faults on the same sections must
// decode each section exactly once (single-flight) and every pin must
// observe fully decoded records. Run under TSan in CI.
TEST(PagedTest, ConcurrentPinsDecodeEachSectionOnce) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(FourProcSource, 5);
  ASSERT_TRUE(R.Prog != nullptr);
  std::string Path = TmpDir.file("concurrent.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);

  BufferPool Pool(size_t(64) << 20);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 8; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != 64; ++I) {
        uint32_t Pid = (T + I) % Store->numProcs();
        BufferPool::Pin P = Pool.pin(*Store, Pid);
        ASSERT_TRUE(P);
        EXPECT_EQ(P.log().Records.size(),
                  Store->section(Pid).NumRecords);
        if (I % 16 == 0)
          (void)Pool.stats();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  BufferPoolStats S = Pool.stats();
  EXPECT_EQ(S.Insertions, uint64_t(Store->numProcs()));
  EXPECT_EQ(S.Evictions, uint64_t(0));
  EXPECT_EQ(S.Hits + S.Misses, uint64_t(8 * 64));
}

// Concurrent pins on a one-byte, two-shard pool: every unpin races other
// threads' insertions into the same shard, yet once all pins drop the
// pool is within budget again (an unpin and an insertion never both skip
// the eviction pass). Run under TSan in CI.
TEST(PagedTest, ConcurrentPinsUnderPressureEndWithinBudget) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(FourProcSource, 5);
  ASSERT_TRUE(R.Prog != nullptr);
  std::string Path = TmpDir.file("concurrent_pressure.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);

  BufferPool Pool(/*BudgetBytes=*/1, /*NumShards=*/2);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 8; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != 64; ++I) {
        uint32_t Pid = (T + I) % Store->numProcs();
        BufferPool::Pin P = Pool.pin(*Store, Pid);
        ASSERT_TRUE(P);
        EXPECT_EQ(P.log().Records.size(),
                  Store->section(Pid).NumRecords);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  BufferPoolStats S = Pool.stats();
  EXPECT_EQ(S.BytesPinned, uint64_t(0));
  EXPECT_LE(S.BytesResident, S.Budget);
  EXPECT_GT(S.Evictions, uint64_t(0));
}

// A pooled session under a starved pool (every fault evicts) still
// matches a session over the run's log: eviction churn must never change
// an answer. Run under TSan in CI.
TEST(PagedTest, StarvedPoolWithReplayWorkersMatchesWhole) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(FourProcSource, 9);
  ASSERT_TRUE(R.Prog != nullptr);
  std::string Path = TmpDir.file("starved.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);

  ExecutionLog Loaded;
  ASSERT_TRUE(ExecutionLog::load(Path, Loaded));
  PpdController Whole(*R.Prog, std::move(Loaded));
  DebugSession WholeSession(*R.Prog, Whole);

  auto Pool = std::make_shared<BufferPool>(/*BudgetBytes=*/1);
  PpdController Paged(*R.Prog, PagedLog{Store, Pool});
  DebugSession PagedSession(*R.Prog, Paged);

  const char *Script[] = {"where 0", "back", "where 1", "back", "where 2",
                          "back",    "fwd",  "races",   "restore 0 1"};
  for (const char *Cmd : Script)
    EXPECT_EQ(WholeSession.execute(Cmd), PagedSession.execute(Cmd))
        << "cmd '" << Cmd << "'";
}

//===----------------------------------------------------------------------===//
// The .ppdb sidecar
//===----------------------------------------------------------------------===//

TEST(PagedTest, ProgramDbRoundTripAdoptsPersistedIndex) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(readCorpusFile("bounded_buffer.ppl"), 3);
  ASSERT_TRUE(R.Prog != nullptr);
  std::string Path = TmpDir.file("ppdb_rt.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);
  std::string DbPath = programDbPathFor(Path);

  LogIndex Skimmed(*Store);
  ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Store, Skimmed));

  std::shared_ptr<const LogIndex> Adopted;
  EXPECT_EQ(int(readProgramDb(DbPath, *R.Prog, *Store, Adopted)),
            int(ProgramDbStatus::Ok));
  ASSERT_TRUE(Adopted != nullptr);
  expectIndexEqual(Skimmed, *Adopted, "round trip");
}

// The sidecar's persisted parallel dynamic graph, adopted on a warm
// open, must match the graph built by scanning the whole decoded log —
// node rows, edge READ/WRITE sets, and the recomputed vector clocks.
// Multi-process source so partner edges and cross-process clocks are
// actually exercised.
TEST(PagedTest, ProgramDbRoundTripAdoptsPersistedGraph) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(FourProcSource, 7);
  ASSERT_TRUE(R.Prog != nullptr);
  std::string Path = TmpDir.file("ppdb_graph.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);
  std::string DbPath = programDbPathFor(Path);

  LogIndex Skimmed(*Store);
  ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Store, Skimmed));

  std::shared_ptr<const LogIndex> Index;
  std::shared_ptr<const ParallelDynamicGraph> Adopted;
  ASSERT_EQ(int(readProgramDb(DbPath, *R.Prog, *Store, Index, &Adopted)),
            int(ProgramDbStatus::Ok));
  ASSERT_TRUE(Adopted != nullptr);

  ParallelDynamicGraph FromLog(R.Log, R.Prog->Symbols->NumSharedVars);
  expectGraphEqual(FromLog, *Adopted, "graph round trip");

  // A session adopting the graph answers queries identically to one
  // over the run's log (the graph feeds races and cross-process reads).
  PpdController Whole(*R.Prog, R.Log);
  DebugSession WholeSession(*R.Prog, Whole);
  auto Pool = std::make_shared<BufferPool>(size_t(1) << 20);
  PpdControllerOptions COpts;
  COpts.AdoptedGraph = Adopted;
  PpdController Paged(*R.Prog, PagedLog{Store, Pool}, Index, COpts);
  DebugSession PagedSession(*R.Prog, Paged);
  const char *Script[] = {"where 0", "back", "races", "where 1", "back"};
  for (const char *Cmd : Script)
    EXPECT_EQ(WholeSession.execute(Cmd), PagedSession.execute(Cmd))
        << "cmd '" << Cmd << "'";
}

// A sidecar written with no graph (rows from the section skim) is
// byte-identical to one written from the graph built over the run's log,
// and the skim-built, log-built and adopted graphs are equal field for
// field, clocks and edge sets included — over the corpus and 200
// generated programs.
TEST(PagedTest, ProgramDbBytesDoNotDependOnTheGraphSource) {
  ScopedTempDir TmpDir;
  const std::string Path = TmpDir.file("source.log");
  const std::string Skimmed = TmpDir.file("skimmed.ppdb");
  const std::string Given = TmpDir.file("given.ppdb");
  auto Check = [&](const Ran &R, const std::string &Label) {
    ASSERT_TRUE(R.Prog != nullptr) << Label;
    auto Store = saveAndOpen(R.Log, Path);
    ASSERT_TRUE(Store != nullptr) << Label;
    LogIndex Index(*Store);
    const unsigned NumShared = R.Prog->Symbols->NumSharedVars;
    ParallelDynamicGraph FromLog(R.Log, NumShared);
    ASSERT_TRUE(writeProgramDb(Skimmed, *R.Prog, *Store, Index)) << Label;
    ASSERT_TRUE(writeProgramDb(Given, *R.Prog, *Store, Index, &FromLog))
        << Label;
    EXPECT_EQ(readFileRaw(Skimmed), readFileRaw(Given)) << Label;

    auto FromSkim = ParallelDynamicGraph::fromStore(
        *Store, NumShared, R.Prog->Ast->numStmts());
    ASSERT_TRUE(FromSkim != nullptr) << Label << ": " << Store->failure();
    expectGraphEqual(FromLog, *FromSkim, Label + " (skim)");
    std::shared_ptr<const LogIndex> AdoptedIndex;
    std::shared_ptr<const ParallelDynamicGraph> Adopted;
    ASSERT_EQ(int(readProgramDb(Skimmed, *R.Prog, *Store, AdoptedIndex,
                                &Adopted)),
              int(ProgramDbStatus::Ok))
        << Label;
    expectGraphEqual(FromLog, *Adopted, Label + " (adopted)");
  };
  for (const char *Name : Corpus)
    for (uint64_t Seed : {1u, 5u, 9u})
      Check(runProgram(readCorpusFile(Name), Seed, {}, {},
                       /*ExpectCompleted=*/false),
            std::string(Name) + " seed " + std::to_string(Seed));
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ppd::testing::GenProgram G = ppd::testing::generateProgram(Seed);
    MachineOptions MOpts;
    MOpts.Quantum = G.Quantum;
    MOpts.MaxSteps = 200'000;
    MOpts.ProcessInputs.assign(8, std::vector<int64_t>(16, int64_t(Seed)));
    Check(runProgram(G.render(), G.SchedSeed, MOpts, {},
                     /*ExpectCompleted=*/false),
          "generated seed " + std::to_string(Seed));
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

// The sidecar bytes of two shipped examples are pinned (DbVersion 4): how
// the writer collects the graph rows must not move a byte.
TEST(PagedTest, ProgramDbBytesArePinnedForCorpus) {
  const struct {
    const char *Name;
    uint64_t Hash;
  } Pins[] = {
      {"bank_race.ppl", 0xdafd9ca88ead052aull},
      {"bounded_buffer.ppl", 0x85d5b983eac9e747ull},
  };
  ScopedTempDir TmpDir;
  for (const auto &Pin : Pins) {
    Ran R = runProgram(readCorpusFile(Pin.Name), 1, {}, {},
                       /*ExpectCompleted=*/false);
    ASSERT_TRUE(R.Prog != nullptr) << Pin.Name;
    std::string Path = TmpDir.file(std::string(Pin.Name) + ".log");
    auto Store = saveAndOpen(R.Log, Path);
    ASSERT_TRUE(Store != nullptr) << Pin.Name;
    std::string DbPath = programDbPathFor(Path);
    ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Store, LogIndex(*Store)));
    uint64_t Hash = fnv1a(readFileRaw(DbPath));
    EXPECT_EQ(Hash, Pin.Hash) << Pin.Name << ": 0x" << std::hex << Hash;
  }
}

// With no sidecar, the graph comes from one skim per section: `races`
// answers like a session over the run's log, and no section is faulted
// into the pool to get there.
TEST(PagedTest, ColdOpenRacesWithoutSidecarFaultNoSection) {
  ScopedTempDir TmpDir;
  for (const char *Name : Corpus) {
    Ran R = runProgram(readCorpusFile(Name), 1, {}, {},
                       /*ExpectCompleted=*/false);
    ASSERT_TRUE(R.Prog != nullptr) << Name;
    auto Store = saveAndOpen(R.Log, TmpDir.file(std::string(Name) + ".log"));
    ASSERT_TRUE(Store != nullptr) << Name;
    auto Pool = std::make_shared<BufferPool>(size_t(1) << 20);
    PpdController Paged(*R.Prog, PagedLog{Store, Pool});
    DebugSession PagedSession(*R.Prog, Paged);
    PpdController Whole(*R.Prog, R.Log);
    DebugSession WholeSession(*R.Prog, Whole);
    EXPECT_EQ(PagedSession.execute("races"), WholeSession.execute("races"))
        << Name;
    EXPECT_EQ(Paged.logFailure(), "") << Name;
    EXPECT_EQ(Pool->stats().Insertions, 0u) << Name;
  }
}

TEST(PagedTest, ProgramDbDetectsStaleProgramAndStaleLog) {
  ScopedTempDir TmpDir;
  std::string Source = readCorpusFile("bounded_buffer.ppl");
  Ran R = runProgram(Source, 3);
  ASSERT_TRUE(R.Prog != nullptr);
  std::string Path = TmpDir.file("ppdb_stale.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);
  std::string DbPath = programDbPathFor(Path);
  std::remove(DbPath.c_str());

  std::shared_ptr<const LogIndex> Index;
  EXPECT_EQ(int(readProgramDb(DbPath, *R.Prog, *Store, Index)),
            int(ProgramDbStatus::Missing));

  LogIndex Skimmed(*Store);
  ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Store, Skimmed));

  // Same source, different partitioning: a recompile that changes
  // debugging-visible structure must read as Stale.
  CompileOptions LoopOpts;
  LoopOpts.EBlocks.LoopBlocks = true;
  auto OtherProg = compileOk(Source, LoopOpts);
  ASSERT_TRUE(OtherProg != nullptr);
  EXPECT_EQ(int(readProgramDb(DbPath, *OtherProg, *Store, Index)),
            int(ProgramDbStatus::Stale));

  // Same program, different execution instance: the sidecar is keyed to
  // one exact log file. (Mutate the log rather than re-running with a
  // different seed — bounded_buffer's channel synchronization makes its
  // schedule, and therefore its log bytes, seed-independent.)
  ExecutionLog OtherLog = R.Log;
  OtherLog.Output.push_back({0, 42, InvalidId});
  std::string OtherPath = TmpDir.file("ppdb_stale_other.log");
  auto OtherStore = saveAndOpen(OtherLog, OtherPath);
  ASSERT_TRUE(OtherStore != nullptr);
  EXPECT_EQ(int(readProgramDb(DbPath, *R.Prog, *OtherStore, Index)),
            int(ProgramDbStatus::Stale));
  EXPECT_TRUE(Index == nullptr);
}

// Truncation at every byte offset: the sidecar codec must answer
// Corrupt/Stale — never Ok, never crash, never hand back an index.
TEST(PagedTest, ProgramDbTruncationAtEveryByteIsRejected) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(readCorpusFile("bounded_buffer.ppl"), 3);
  ASSERT_TRUE(R.Prog != nullptr);
  std::string Path = TmpDir.file("ppdb_trunc.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);
  std::string DbPath = programDbPathFor(Path);
  LogIndex Skimmed(*Store);
  ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Store, Skimmed));

  std::vector<uint8_t> Bytes = readFileRaw(DbPath);
  ASSERT_GT(Bytes.size(), size_t(0));
  std::string TruncPath = TmpDir.file("ppdb_trunc.log.ppdb.cut");
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    writeFileRaw(TruncPath, Bytes.data(), Len);
    std::shared_ptr<const LogIndex> Index;
    std::shared_ptr<const ParallelDynamicGraph> Graph;
    ProgramDbStatus Status =
        readProgramDb(TruncPath, *R.Prog, *Store, Index, &Graph);
    EXPECT_NE(int(Status), int(ProgramDbStatus::Ok)) << "length " << Len;
    EXPECT_TRUE(Index == nullptr) << "length " << Len;
    EXPECT_TRUE(Graph == nullptr) << "length " << Len;
  }
}

// A sidecar written by an older build (any version word but the current
// one) is Stale, so the caller rebuilds it rather than trusting it.
TEST(PagedTest, ProgramDbOlderVersionReadsStale) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(readCorpusFile("bounded_buffer.ppl"), 3);
  ASSERT_TRUE(R.Prog != nullptr);
  std::string Path = TmpDir.file("ppdb_v2.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);
  std::string DbPath = programDbPathFor(Path);
  ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Store, LogIndex(*Store)));

  std::vector<uint8_t> Bytes = readFileRaw(DbPath);
  ASSERT_GE(Bytes.size(), size_t(8));
  const uint8_t V2[4] = {2, 0, 0, 0}; // the u32 after the magic word
  std::memcpy(Bytes.data() + 4, V2, 4);
  writeFileRaw(DbPath, Bytes.data(), Bytes.size());
  std::shared_ptr<const LogIndex> Index;
  EXPECT_EQ(int(readProgramDb(DbPath, *R.Prog, *Store, Index)),
            int(ProgramDbStatus::Stale));
  EXPECT_TRUE(Index == nullptr);
}

//===----------------------------------------------------------------------===//
// The program fingerprint
//===----------------------------------------------------------------------===//

// The fingerprint depends only on what the compile produced: two
// independent compiles of one source agree, and a sidecar written with
// one is adopted by the other. A fingerprint that read indeterminate
// bytes (struct padding, addresses) would make every open cold.
TEST(PagedTest, ProgramHashIsDeterministicAcrossCompiles) {
  ScopedTempDir TmpDir;
  std::string Source = readCorpusFile("bounded_buffer.ppl");
  Ran R = runProgram(Source, 3);
  ASSERT_TRUE(R.Prog != nullptr);
  auto Again = compileOk(Source);
  ASSERT_TRUE(Again != nullptr);
  EXPECT_EQ(programHash(*R.Prog), programHash(*Again));

  std::string Path = TmpDir.file("ppdb_recompile.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);
  std::string DbPath = programDbPathFor(Path);
  ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Store, LogIndex(*Store)));
  std::shared_ptr<const LogIndex> Index;
  EXPECT_EQ(int(readProgramDb(DbPath, *Again, *Store, Index)),
            int(ProgramDbStatus::Ok));
}

// The fingerprint of each shipped example is pinned: `.ppdb` sidecars
// written by earlier builds of the same format version stay Warm only if
// these never move.
TEST(PagedTest, ProgramHashIsPinnedForCorpus) {
  const struct {
    const char *Name;
    uint64_t Hash;
  } Pins[] = {
      {"bank_race.ppl", 0x7f5c9533e01fc3d3ull},
      {"bounded_buffer.ppl", 0xa9804db7e089ebfeull},
      {"crash.ppl", 0xbfea9d89791a29a1ull},
      {"deadlock.ppl", 0x50e16ceefb89f1afull},
      {"fig41.ppl", 0xda7bb11279497368ull},
  };
  for (const auto &Pin : Pins) {
    auto Prog = compileOk(readCorpusFile(Pin.Name));
    ASSERT_TRUE(Prog != nullptr) << Pin.Name;
    uint64_t Hash = programHash(*Prog);
    EXPECT_EQ(Hash, Pin.Hash) << Pin.Name << ": 0x" << std::hex << Hash;
  }
}

// Every bit of the 32-bit A operand reaches the fingerprint, in both
// artifacts (A is packed with B into one word, so a lost half would show).
TEST(PagedTest, ProgramHashSeesEveryBitOfA) {
  auto Prog = compileOk(readCorpusFile("fig41.ppl"));
  ASSERT_TRUE(Prog != nullptr);
  uint64_t Base = programHash(*Prog);
  CompiledFunction &Main = Prog->Funcs[Prog->MainIndex];
  for (Chunk *C : {&Main.Object, &Main.Emu}) {
    ASSERT_GT(C->size(), 0u);
    int32_t Old = C->at(0).A;
    for (unsigned Bit = 0; Bit != 32; ++Bit) {
      C->patchA(0, int32_t(uint32_t(Old) ^ (1u << Bit)));
      EXPECT_NE(programHash(*Prog), Base)
          << (C == &Main.Object ? "object" : "emu") << " bit " << Bit;
    }
    C->patchA(0, Old);
  }
  EXPECT_EQ(programHash(*Prog), Base);
}

// Immediates are 64 bits wide and every one of them counts. Sources that
// differ only in one literal reach bits 0, 31 and 32; no literal has bit
// 63 set, so that bit is flipped in a re-emitted copy of each artifact.
TEST(PagedTest, ProgramHashSeesImmediateBits) {
  auto hashOf = [](const std::string &Literal) {
    auto Prog = compileOk("func main() { print(" + Literal + "); }");
    return Prog ? programHash(*Prog) : 0;
  };
  uint64_t Zero = hashOf("0");
  EXPECT_EQ(hashOf("0"), Zero);
  for (const char *Literal : {"1", "2147483648", "4294967296"})
    EXPECT_NE(hashOf(Literal), Zero) << Literal;

  auto Prog = compileOk("func main() { print(0); }");
  ASSERT_TRUE(Prog != nullptr);
  ASSERT_EQ(programHash(*Prog), Zero);
  CompiledFunction &Main = Prog->Funcs[Prog->MainIndex];
  for (Chunk *C : {&Main.Object, &Main.Emu}) {
    const Chunk Saved = *C;
    uint32_t Pc = 0;
    while (Pc != Saved.size() && Saved.at(Pc).Opcode != Op::PushConst)
      ++Pc;
    ASSERT_NE(Pc, Saved.size());
    for (unsigned Bit : {0u, 31u, 32u, 63u}) {
      Chunk Flipped;
      for (uint32_t I = 0; I != Saved.size(); ++I) {
        Instr In = Saved.at(I);
        if (I == Pc)
          In.Imm = int64_t(uint64_t(In.Imm) ^ (uint64_t(1) << Bit));
        Flipped.emit(In, Saved.stmtAt(I));
      }
      *C = Flipped;
      EXPECT_NE(programHash(*Prog), Zero)
          << (C == &Main.Object ? "object" : "emu") << " bit " << Bit;
    }
    *C = Saved;
  }
  EXPECT_EQ(programHash(*Prog), Zero);
}

// The e-block USED/DEFINED sets and the instrumentation option are part
// of the fingerprint.
TEST(PagedTest, ProgramHashSeesUsedDefinedAndInstrument) {
  auto Prog = compileOk(readCorpusFile("bounded_buffer.ppl"));
  ASSERT_TRUE(Prog != nullptr);
  uint64_t Base = programHash(*Prog);
  ASSERT_FALSE(Prog->EBlocks.empty());
  EBlockInfo &EB = Prog->EBlocks.back();
  for (std::vector<VarId> *Set : {&EB.Used, &EB.Defined}) {
    std::vector<VarId> Saved = *Set;
    Set->push_back(VarId(Prog->Symbols->numVars()));
    EXPECT_NE(programHash(*Prog), Base);
    *Set = Saved;
  }
  EXPECT_EQ(programHash(*Prog), Base);
  Prog->Options.Instrument = !Prog->Options.Instrument;
  EXPECT_NE(programHash(*Prog), Base);
}

// A global's initial value lives in the symbol table, not in the
// bytecode; the fingerprint must still see it, or a sidecar (or a stream)
// recorded from a source that differs in one initializer is adopted.
TEST(PagedTest, ProgramHashSeesGlobalInitializers) {
  ScopedTempDir TmpDir;
  auto Source = [](int Shared, int Private) {
    return "shared int s = " + std::to_string(Shared) + ";\nint p = " +
           std::to_string(Private) + ";\nfunc main() { print(s + p); }\n";
  };
  auto Twin = compileOk(Source(5, 1));
  auto OtherShared = compileOk(Source(6, 1));
  auto OtherPrivate = compileOk(Source(5, 2));
  ASSERT_TRUE(Twin && OtherShared && OtherPrivate);

  Ran R = runProgram(Source(5, 1));
  ASSERT_TRUE(R.Prog != nullptr);
  uint64_t Base = programHash(*R.Prog);
  EXPECT_EQ(programHash(*Twin), Base);
  EXPECT_NE(programHash(*OtherShared), Base);
  EXPECT_NE(programHash(*OtherPrivate), Base);

  std::string Path = TmpDir.file("ppdb_init.log");
  auto Store = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Store != nullptr);
  std::string DbPath = programDbPathFor(Path);
  ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Store, LogIndex(*Store)));
  std::shared_ptr<const LogIndex> Index;
  EXPECT_EQ(int(readProgramDb(DbPath, *Twin, *Store, Index)),
            int(ProgramDbStatus::Ok));
  for (const CompiledProgram *Other : {OtherShared.get(), OtherPrivate.get()})
    EXPECT_EQ(int(readProgramDb(DbPath, *Other, *Store, Index)),
              int(ProgramDbStatus::Stale));
}

//===----------------------------------------------------------------------===//
// PageStore validation
//===----------------------------------------------------------------------===//

// A store must reject a truncated file at every byte offset (open
// validates section extents and the output trailer), and a file whose
// header carries any version but the current one — with a reason that
// names the version. The whole-file loader rejects the same headers. A
// file cut in place *after* open, to any length, or rewritten in place
// in a section not yet faulted, fails the store with a reason that says
// the file changed — never a signal, never the new bytes.
TEST(PagedTest, StoreRejectsV1AndEveryTruncation) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(readCorpusFile("bank_race.ppl"), 1);
  ASSERT_TRUE(R.Prog != nullptr);
  ASSERT_GE(R.Log.Procs.size(), size_t(2));

  std::string Path = TmpDir.file("store_v2.log");
  ASSERT_TRUE(R.Log.save(Path));
  std::vector<uint8_t> Bytes = readFileRaw(Path);
  ASSERT_GE(Bytes.size(), size_t(8));

  // Magic, then the u32 version word: patch it, keep every other byte.
  std::string VersionPath = TmpDir.file("store_version.log");
  for (uint32_t Version : {1u, 3u}) {
    std::vector<uint8_t> Patched = Bytes;
    std::memcpy(Patched.data() + 4, &Version, 4);
    writeFileRaw(VersionPath, Patched.data(), Patched.size());
    std::string Error;
    EXPECT_TRUE(PageStore::open(VersionPath, &Error) == nullptr) << Version;
    EXPECT_NE(Error.find("version " + std::to_string(Version)),
              std::string::npos)
        << Error;
    ExecutionLog Loaded;
    EXPECT_FALSE(ExecutionLog::load(VersionPath, Loaded)) << Version;
  }

  std::string CutPath = TmpDir.file("store_cut.log");
  auto ExpectChanged = [](const PageStore &Store, const std::string &Label) {
    EXPECT_TRUE(Store.failed()) << Label;
    EXPECT_NE(Store.failure().find("changed since it was opened"),
              std::string::npos)
        << Label << ": " << Store.failure();
  };
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    writeFileRaw(CutPath, Bytes.data(), Len);
    std::string Error;
    EXPECT_TRUE(PageStore::open(CutPath, &Error) == nullptr)
        << "length " << Len;

    // The same cut, made in place after a successful open.
    writeFileRaw(CutPath, Bytes.data(), Bytes.size());
    auto Store = PageStore::open(CutPath, &Error);
    ASSERT_TRUE(Store != nullptr) << Error;
    ASSERT_EQ(::truncate(CutPath.c_str(), off_t(Len)), 0);
    BufferPool Pool(size_t(1) << 20);
    EXPECT_FALSE(Pool.pin(*Store, 0)) << "length " << Len;
    std::vector<LogInterval> Intervals;
    std::vector<uint32_t> Open;
    EXPECT_FALSE(Store->skimIndex(1, Intervals, Open)) << "length " << Len;
    ExpectChanged(*Store, "cut to " + std::to_string(Len));
  }

  // One byte rewritten in place inside a section no pin has faulted yet.
  // mtime has the file system's timestamp granularity (a clock tick on
  // many kernels), so the rewrite waits out the tick the save landed in.
  writeFileRaw(CutPath, Bytes.data(), Bytes.size());
  std::string Error;
  auto Store = PageStore::open(CutPath, &Error);
  ASSERT_TRUE(Store != nullptr) << Error;
  BufferPool Pool(size_t(1) << 20);
  EXPECT_TRUE(Pool.pin(*Store, 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const PageStore::SectionMeta &M = Store->section(1);
  uint8_t Flipped = Bytes[M.Offset + M.EncodedBytes - 1] ^ 0x01;
  int Fd = ::open(CutPath.c_str(), O_WRONLY);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::pwrite(Fd, &Flipped, 1, off_t(M.Offset + M.EncodedBytes - 1)),
            ssize_t(1));
  ::close(Fd);
  EXPECT_FALSE(Pool.pin(*Store, 1));
  ExpectChanged(*Store, "one byte rewritten");
  EXPECT_FALSE(Pool.pin(*Store, 0)) << "a failed store stays failed";
}

// Every byte of a small multi-process log flipped (xor 0x01 and 0xff),
// debugged the way `ppd debug --log` does — with and without a `.ppdb`
// written from the intact log. No flip may raise a signal: the store
// refuses to open, or every command answers, or — once a section fails
// to read or its records prove inconsistent — answers "error: <reason>"
// from then on.
TEST(PagedTest, EveryByteCorruptionAnswersOrGivesTypedError) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(readCorpusFile("bank_race.ppl"), 1);
  ASSERT_TRUE(R.Prog != nullptr);
  std::string Path = TmpDir.file("flip_intact.log");
  auto Intact = saveAndOpen(R.Log, Path);
  ASSERT_TRUE(Intact != nullptr);
  std::string DbPath = programDbPathFor(Path);
  ASSERT_TRUE(writeProgramDb(DbPath, *R.Prog, *Intact, LogIndex(*Intact)));
  std::vector<uint8_t> Bytes = readFileRaw(Path);

  const char *Script[] = {"where 0", "races", "restore 0 1"};
  std::string FlipPath = TmpDir.file("flip.log");
  unsigned Opened = 0, Failed = 0;
  for (bool WithDb : {false, true})
    for (size_t Offset = 0; Offset != Bytes.size(); ++Offset)
      for (uint8_t Mask : {uint8_t(0x01), uint8_t(0xff)}) {
        std::string Label = std::string(WithDb ? "with" : "without") +
                            " .ppdb, byte " + std::to_string(Offset) +
                            " ^ " + std::to_string(Mask);
        std::vector<uint8_t> Flipped = Bytes;
        Flipped[Offset] ^= Mask;
        writeFileRaw(FlipPath, Flipped.data(), Flipped.size());
        std::string Error;
        auto Store = PageStore::open(FlipPath, &Error);
        if (!Store) {
          EXPECT_FALSE(Error.empty()) << Label;
          continue;
        }
        ++Opened;
        std::shared_ptr<const LogIndex> Index;
        PpdControllerOptions COpts;
        if (!WithDb || readProgramDb(DbPath, *R.Prog, *Store, Index,
                                     &COpts.AdoptedGraph) !=
                           ProgramDbStatus::Ok)
          Index = std::make_shared<const LogIndex>(*Store);
        auto Pool = std::make_shared<BufferPool>(size_t(8) << 10);
        PpdController C(*R.Prog, PagedLog{Store, Pool}, Index, COpts);
        DebugSession Session(*R.Prog, C);
        bool SawError = false;
        for (const char *Cmd : Script) {
          std::string Answer = Session.execute(Cmd);
          std::string Failure = C.logFailure();
          if (Failure.empty()) {
            EXPECT_FALSE(SawError) << Label << ": failure is sticky";
            EXPECT_EQ(Answer.rfind("error:", 0), std::string::npos)
                << Label << " '" << Cmd << "': " << Answer;
            continue;
          }
          SawError = true;
          EXPECT_EQ(Answer, "error: " + Failure + "\n") << Label;
          EXPECT_NE(Failure.find("is corrupt"), std::string::npos)
              << Label << ": " << Failure;
        }
        Failed += SawError;
      }
  // Both outcomes occur: flips inside record bodies that decode cleanly
  // still answer, and the sweep is not vacuous.
  EXPECT_GT(Opened, 0u);
  EXPECT_GT(Failed, 0u);
  EXPECT_LT(Failed, Opened);
}

// Values that decode cleanly but that no run of this program could have
// logged. Each must fail the store as corrupt on the command that first
// reads it — never index a program table or the seq table out of range.
TEST(PagedTest, OutOfRangeDecodedValuesGiveTypedError) {
  ScopedTempDir TmpDir;
  Ran R = runProgram(readCorpusFile("bank_race.ppl"), 1);
  ASSERT_TRUE(R.Prog != nullptr);
  const uint32_t NumVars = R.Prog->Symbols->numVars();
  const uint32_t NumShared = R.Prog->Symbols->NumSharedVars;
  const uint32_t NumStmts = R.Prog->Ast->numStmts();
  auto EachRecord = [](ExecutionLog &L, LogRecordKind Kind,
                       const std::function<void(LogRecord &)> &Fn) {
    for (ProcessLog &P : L.Procs)
      for (LogRecord &Rec : P.Records)
        if (Rec.Kind == Kind)
          Fn(Rec);
  };
  auto LastSync = [](ExecutionLog &L) -> LogRecord & {
    LogRecord *Last = nullptr;
    for (ProcessLog &P : L.Procs)
      for (LogRecord &Rec : P.Records)
        if (Rec.Kind == LogRecordKind::SyncEvent &&
            (!Last || Rec.Seq > Last->Seq))
          Last = &Rec;
    return *Last;
  };
  struct Case {
    const char *Name;
    const char *Cmd;
    std::function<void(ExecutionLog &)> Mangle;
  };
  const Case Cases[] = {
      {"duplicate seq", "races",
       [&](ExecutionLog &L) { LastSync(L).Seq = 0; }},
      {"seq past the sync-record count", "races",
       [&](ExecutionLog &L) { LastSync(L).Seq = uint64_t(1) << 40; }},
      {"partner after its dependent", "races",
       [&](ExecutionLog &L) {
         LogRecord &Last = LastSync(L);
         EachRecord(L, LogRecordKind::SyncEvent, [&](LogRecord &Rec) {
           if (Rec.Seq == 1)
             Rec.PartnerSeq = Last.Seq;
         });
       }},
      {"shared id past the shared segment", "races",
       [&](ExecutionLog &L) {
         LastSync(L).WriteSet.push_back(NumShared + 5);
       }},
      {"statement id past the program", "races",
       [&](ExecutionLog &L) { LastSync(L).Stmt = NumStmts + 7; }},
      {"prelog variable past the program", "where 0",
       [&](ExecutionLog &L) {
         EachRecord(L, LogRecordKind::Prelog, [&](LogRecord &Rec) {
           Rec.Vars.push_back({NumVars + 3, {1}});
         });
       }},
      {"prelog variable with too many values", "where 0",
       [&](ExecutionLog &L) {
         EachRecord(L, LogRecordKind::Prelog, [&](LogRecord &Rec) {
           for (VarValue &V : Rec.Vars)
             for (int K = 0; K != 64; ++K)
               V.Values.push_back(7);
         });
       }},
      {"postlog variable past the program", "restore 1 0",
       [&](ExecutionLog &L) {
         EachRecord(L, LogRecordKind::Postlog, [&](LogRecord &Rec) {
           Rec.Vars.push_back({NumVars + 3, {1}});
         });
       }},
      {"e-block past the program", "where 0",
       [&](ExecutionLog &L) {
         for (LogRecordKind Kind :
              {LogRecordKind::Prelog, LogRecordKind::Postlog})
           EachRecord(L, Kind, [](LogRecord &Rec) { Rec.Id += 1000; });
       }},
      {"root function past the program", "where 0",
       [&](ExecutionLog &L) { L.Procs.back().RootFunc = 999; }},
  };
  std::string Path = TmpDir.file("out_of_range.log");
  for (const Case &C : Cases) {
    ExecutionLog Log = R.Log;
    C.Mangle(Log);
    auto Store = saveAndOpen(Log, Path);
    ASSERT_TRUE(Store != nullptr) << C.Name;

    // The sidecar writer applies the reader's checks: it either fails
    // with its store failed, or writes a sidecar the reader accepts.
    {
      std::string Error;
      auto Written = PageStore::open(Path, &Error);
      ASSERT_TRUE(Written != nullptr) << C.Name << ": " << Error;
      std::string DbPath = programDbPathFor(Path);
      std::remove(DbPath.c_str());
      if (writeProgramDb(DbPath, *R.Prog, *Written, LogIndex(*Written))) {
        std::shared_ptr<const LogIndex> Index;
        std::shared_ptr<const ParallelDynamicGraph> Graph;
        EXPECT_EQ(int(readProgramDb(DbPath, *R.Prog, *Written, Index,
                                    &Graph)),
                  int(ProgramDbStatus::Ok))
            << C.Name << ": the writer accepted what the reader rejects";
      } else {
        EXPECT_TRUE(Written->failed()) << C.Name;
      }
    }

    auto Pool = std::make_shared<BufferPool>(size_t(1) << 20);
    PpdController Paged(*R.Prog, PagedLog{Store, Pool});
    DebugSession Session(*R.Prog, Paged);
    std::string Answer = Session.execute(C.Cmd);
    EXPECT_EQ(Answer.rfind("error: ", 0), size_t(0))
        << C.Name << ": " << Answer;
    EXPECT_NE(Paged.logFailure().find("is corrupt"), std::string::npos)
        << C.Name << ": " << Paged.logFailure();
  }
}

} // namespace
