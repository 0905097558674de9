//===- tests/log_test.cpp - Log structure and serialization ---------------===//
//
// Part of PPD test suite: log-interval structure (Figs 5.1/5.2), the
// open-interval rule (§5.3), binary save/load round trips, byte-size
// accounting (experiment E2's currency).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "log/LogIO.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ppd;
using namespace ppd::test;

namespace {

/// Field-by-field equality of two logs, including the fields the existing
/// round-trip test leaves unchecked (Flags, Sync, Stmt, Vars contents,
/// PrelogCount, Output statements).
void expectLogsEqual(const ExecutionLog &A, const ExecutionLog &B) {
  ASSERT_EQ(A.Procs.size(), B.Procs.size());
  for (uint32_t Pid = 0; Pid != A.Procs.size(); ++Pid) {
    const ProcessLog &PA = A.Procs[Pid];
    const ProcessLog &PB = B.Procs[Pid];
    EXPECT_EQ(PA.Pid, PB.Pid);
    EXPECT_EQ(PA.RootFunc, PB.RootFunc);
    EXPECT_EQ(PA.Args, PB.Args);
    EXPECT_EQ(PA.PrelogCount, PB.PrelogCount);
    ASSERT_EQ(PA.Records.size(), PB.Records.size());
    for (size_t I = 0; I != PA.Records.size(); ++I) {
      const LogRecord &RA = PA.Records[I];
      const LogRecord &RB = PB.Records[I];
      EXPECT_EQ(int(RA.Kind), int(RB.Kind));
      EXPECT_EQ(RA.Id, RB.Id);
      EXPECT_EQ(RA.Flags, RB.Flags);
      EXPECT_EQ(RA.Value, RB.Value);
      EXPECT_EQ(RA.Seq, RB.Seq);
      EXPECT_EQ(RA.PartnerSeq, RB.PartnerSeq);
      EXPECT_EQ(int(RA.Sync), int(RB.Sync));
      EXPECT_EQ(RA.Stmt, RB.Stmt);
      ASSERT_EQ(RA.Vars.size(), RB.Vars.size());
      for (size_t V = 0; V != RA.Vars.size(); ++V) {
        EXPECT_EQ(RA.Vars[V].Var, RB.Vars[V].Var);
        EXPECT_EQ(RA.Vars[V].Values, RB.Vars[V].Values);
      }
      EXPECT_EQ(RA.ReadSet, RB.ReadSet);
      EXPECT_EQ(RA.WriteSet, RB.WriteSet);
    }
  }
  ASSERT_EQ(A.Output.size(), B.Output.size());
  for (size_t I = 0; I != A.Output.size(); ++I) {
    EXPECT_EQ(A.Output[I].Pid, B.Output[I].Pid);
    EXPECT_EQ(A.Output[I].Value, B.Output[I].Value);
    EXPECT_EQ(A.Output[I].Stmt, B.Output[I].Stmt);
  }
}

/// Builds a randomized log in the canonical shape the machine emits: each
/// record populates exactly the fields its kind carries, postlogs close a
/// previously opened e-block, sync sequence numbers rise globally, and
/// READ/WRITE sets are ascending.
ExecutionLog randomCanonicalLog(uint64_t Seed, uint32_t NumProcs) {
  Rng Rand(Seed);
  ExecutionLog Log;
  Log.Procs.resize(NumProcs);
  uint64_t GlobalSeq = 0;

  auto fillVars = [&Rand](LogRecord &R) {
    unsigned NumVars = unsigned(Rand.nextBelow(4));
    for (unsigned V = 0; V != NumVars; ++V) {
      VarValue &Val = R.Vars.emplace_back();
      Val.Var = VarId(Rand.nextBelow(32));
      unsigned NumValues = 1 + unsigned(Rand.nextBelow(4));
      for (unsigned K = 0; K != NumValues; ++K)
        Val.Values.push_back(Rand.nextInRange(-(1ll << 40), 1ll << 40));
    }
  };
  auto fillSet = [&Rand](SmallVec<uint32_t, 4> &Set) {
    unsigned Count = unsigned(Rand.nextBelow(7));
    uint32_t Next = uint32_t(Rand.nextBelow(4));
    for (unsigned K = 0; K != Count; ++K) {
      Set.push_back(Next);
      Next += 1 + uint32_t(Rand.nextBelow(3));
    }
  };

  for (uint32_t Pid = 0; Pid != NumProcs; ++Pid) {
    ProcessLog &P = Log.Procs[Pid];
    P.Pid = Pid;
    P.RootFunc = uint32_t(Rand.nextBelow(8));
    unsigned NumArgs = unsigned(Rand.nextBelow(4));
    for (unsigned A = 0; A != NumArgs; ++A)
      P.Args.push_back(Rand.nextInRange(-1000, 1000));

    std::vector<uint32_t> OpenBlocks;
    unsigned NumRecords = 16 + unsigned(Rand.nextBelow(48));
    for (unsigned I = 0; I != NumRecords; ++I) {
      unsigned Pick = unsigned(Rand.nextBelow(5));
      if (Pick == 1 && OpenBlocks.empty())
        Pick = 0;
      LogRecord &R = P.Records.emplace_back();
      switch (Pick) {
      case 0:
        R.Kind = LogRecordKind::Prelog;
        R.Id = uint32_t(Rand.nextBelow(64));
        OpenBlocks.push_back(R.Id);
        ++P.PrelogCount;
        fillVars(R);
        break;
      case 1:
        R.Kind = LogRecordKind::Postlog;
        R.Id = OpenBlocks.back();
        OpenBlocks.pop_back();
        if (Rand.nextBelow(2) == 0) {
          R.Flags = PostlogExitsFunction;
          R.Value = Rand.nextInRange(-100000, 100000);
        }
        fillVars(R);
        break;
      case 2:
        R.Kind = LogRecordKind::UnitLog;
        R.Id = uint32_t(Rand.nextBelow(64));
        fillVars(R);
        break;
      case 3:
        R.Kind = LogRecordKind::Input;
        R.Value = Rand.nextInRange(-100000, 100000);
        break;
      default:
        R.Kind = LogRecordKind::SyncEvent;
        R.Sync = SyncKind(Rand.nextBelow(8));
        R.Id = uint32_t(Rand.nextBelow(16));
        R.Stmt = Rand.nextBelow(3) == 0 ? InvalidId
                                        : StmtId(Rand.nextBelow(200));
        R.Value = Rand.nextInRange(-100000, 100000);
        GlobalSeq += 1 + Rand.nextBelow(5);
        R.Seq = GlobalSeq;
        R.PartnerSeq = Rand.nextBelow(3) == 0 ? NoPartner
                                              : Rand.nextBelow(GlobalSeq + 8);
        fillSet(R.ReadSet);
        fillSet(R.WriteSet);
        break;
      }
    }
    if (Rand.nextBelow(3) == 0) {
      LogRecord &R = P.Records.emplace_back();
      R.Kind = LogRecordKind::Stop;
      R.Stmt = Rand.nextBelow(2) == 0 ? InvalidId : StmtId(Rand.nextBelow(200));
    }
  }

  unsigned NumOut = unsigned(Rand.nextBelow(12));
  for (unsigned I = 0; I != NumOut; ++I) {
    OutputRecord O;
    O.Pid = uint32_t(Rand.nextBelow(NumProcs));
    O.Value = Rand.nextInRange(-100000, 100000);
    O.Stmt = Rand.nextBelow(4) == 0 ? InvalidId : StmtId(Rand.nextBelow(200));
    Log.Output.push_back(O);
  }
  return Log;
}

TEST(LogTest, NestedIntervalsMirrorCallNesting) {
  auto R = runProgram(R"(
func inner(int x) { return x + 1; }
func outer(int x) { return inner(x) * 2; }
func main() { print(outer(10)); }
)");
  LogIndex Index(R.Log);
  const auto &Intervals = Index.intervals(0);
  // main, outer, inner — one interval each.
  ASSERT_EQ(Intervals.size(), 3u);

  // Intervals are numbered by prelog order: main(0), outer(1), inner(2);
  // inner nests in outer nests in main (Fig 5.2).
  EXPECT_EQ(Intervals[0].Depth, 0u);
  EXPECT_EQ(Intervals[1].Depth, 1u);
  EXPECT_EQ(Intervals[2].Depth, 2u);
  EXPECT_EQ(Intervals[1].Parent, Intervals[0].Index);
  EXPECT_EQ(Intervals[2].Parent, Intervals[1].Index);
  for (const LogInterval &Interval : Intervals) {
    EXPECT_NE(Interval.PostlogRecord, InvalidId);
    EXPECT_LT(Interval.PrelogRecord, Interval.PostlogRecord);
    EXPECT_TRUE(Interval.ExitsFunction);
  }
  EXPECT_EQ(Index.lastOpenInterval(0), nullptr);
}

TEST(LogTest, LoopsMakeRepeatedIntervalsOfOneEBlock) {
  auto R = runProgram(R"(
func f(int x) { return x; }
func main() {
  int i = 0;
  int s = 0;
  for (i = 0; i < 4; i = i + 1) s = s + f(i);
  print(s);
}
)");
  LogIndex Index(R.Log);
  // "a given e-block of a program may have several corresponding log
  // intervals during execution" (§5.1): f's e-block has 4 intervals.
  unsigned FIntervals = 0;
  uint32_t FEBlock = InvalidId;
  for (const LogInterval &Interval : Index.intervals(0)) {
    if (Interval.Depth != 1)
      continue;
    ++FIntervals;
    if (FEBlock == InvalidId)
      FEBlock = Interval.EBlock;
    EXPECT_EQ(Interval.EBlock, FEBlock);
  }
  EXPECT_EQ(FIntervals, 4u);
}

TEST(LogTest, FailureLeavesOpenIntervalStack) {
  auto R = runProgram(R"(
func crash(int x) { int z = 0; return x / z; }
func middle(int x) { return crash(x); }
func main() { print(middle(3)); }
)",
                      1, {}, {}, /*ExpectCompleted=*/false);
  ASSERT_EQ(int(R.Result.Outcome), int(RunResult::Status::Failed));
  LogIndex Index(R.Log);
  // All three intervals are open; the *last* prelog without a postlog is
  // crash's (§5.3: where the debugging session starts).
  const LogInterval *Open = Index.lastOpenInterval(0);
  ASSERT_NE(Open, nullptr);
  EXPECT_EQ(Open->Depth, 2u);
  const EBlockInfo &EBlock = R.Prog->eblock(Open->EBlock);
  EXPECT_EQ(R.Prog->func(EBlock.Func).Name, "crash");
}

TEST(LogTest, EnclosingFindsInnermostInterval) {
  auto R = runProgram(R"(
func g(int x) { return x + 1; }
func main() { print(g(1)); }
)");
  LogIndex Index(R.Log);
  const auto &Intervals = Index.intervals(0);
  ASSERT_EQ(Intervals.size(), 2u);
  // A record inside g's span belongs to g's interval.
  uint32_t Mid =
      (Intervals[1].PrelogRecord + Intervals[1].PostlogRecord) / 2;
  const LogInterval *Enclosing = Index.enclosing(0, Mid);
  ASSERT_NE(Enclosing, nullptr);
  EXPECT_EQ(Enclosing->Index, Intervals[1].Index);
}

TEST(LogTest, SaveLoadRoundTrip) {
  MachineOptions MOpts;
  MOpts.ProcessInputs = {{5}};
  auto R = runProgram(R"(
shared int sv;
sem m = 1;
chan c[2];
func child(int k) { P(m); sv = sv + k; V(m); send(c, k); }
func main() {
  spawn child(2);
  int got = recv(c);
  print(got + input());
}
)",
                      1, MOpts);

  ScopedTempDir TmpDir;
  std::string Path = TmpDir.file("log.bin");
  ASSERT_TRUE(R.Log.save(Path));

  ExecutionLog Loaded;
  ASSERT_TRUE(ExecutionLog::load(Path, Loaded));
  ASSERT_EQ(Loaded.Procs.size(), R.Log.Procs.size());
  for (uint32_t Pid = 0; Pid != Loaded.Procs.size(); ++Pid) {
    const ProcessLog &A = R.Log.Procs[Pid];
    const ProcessLog &B = Loaded.Procs[Pid];
    EXPECT_EQ(A.RootFunc, B.RootFunc);
    EXPECT_EQ(A.Args, B.Args);
    ASSERT_EQ(A.Records.size(), B.Records.size());
    for (size_t I = 0; I != A.Records.size(); ++I) {
      EXPECT_EQ(int(A.Records[I].Kind), int(B.Records[I].Kind));
      EXPECT_EQ(A.Records[I].Id, B.Records[I].Id);
      EXPECT_EQ(A.Records[I].Value, B.Records[I].Value);
      EXPECT_EQ(A.Records[I].Seq, B.Records[I].Seq);
      EXPECT_EQ(A.Records[I].PartnerSeq, B.Records[I].PartnerSeq);
      EXPECT_EQ(A.Records[I].Vars.size(), B.Records[I].Vars.size());
      EXPECT_EQ(A.Records[I].ReadSet, B.Records[I].ReadSet);
      EXPECT_EQ(A.Records[I].WriteSet, B.Records[I].WriteSet);
    }
  }
  ASSERT_EQ(Loaded.Output.size(), R.Log.Output.size());
  for (size_t I = 0; I != Loaded.Output.size(); ++I)
    EXPECT_EQ(Loaded.Output[I].Value, R.Log.Output[I].Value);
}

TEST(LogTest, LoadRejectsGarbage) {
  ScopedTempDir TmpDir;
  std::string Path = TmpDir.file("log.bin");
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("this is not a PPD log", F);
  std::fclose(F);
  ExecutionLog Loaded;
  EXPECT_FALSE(ExecutionLog::load(Path, Loaded));
}

TEST(LogTest, ByteSizeGrowsWithRecords) {
  auto Small = runProgram("func main() { print(1); }");
  auto Large = runProgram(R"(
shared int sv;
func f(int x) { sv = sv + x; return sv; }
func main() {
  int i = 0;
  for (i = 0; i < 50; i = i + 1) sv = sv + f(i);
  print(sv);
}
)");
  EXPECT_GT(Large.Log.byteSize(), Small.Log.byteSize() * 5);
}

TEST(LogTest, PerProcessLogsAreSeparate) {
  // "There is one log file for each process" (§5.6).
  auto R = runProgram(R"(
chan done;
func w(int id) { send(done, id); }
func main() {
  spawn w(1);
  spawn w(2);
  int a = recv(done);
  int b = recv(done);
  print(a + b);
}
)");
  ASSERT_EQ(R.Log.Procs.size(), 3u);
  for (uint32_t Pid = 0; Pid != 3; ++Pid) {
    EXPECT_EQ(R.Log.Procs[Pid].Pid, Pid);
    EXPECT_FALSE(R.Log.Procs[Pid].Records.empty());
  }
  EXPECT_EQ(R.Log.Procs[1].RootFunc, R.Prog->Ast->findFunc("w")->Index);
  EXPECT_EQ(R.Log.Procs[1].Args.size(), 1u);
}

TEST(LogTest, RoundTripPropertyBothFormats) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    ExecutionLog Log = randomCanonicalLog(Seed, 1 + uint32_t(Seed % 4));
    ScopedTempDir TmpDir;
    std::string Path = TmpDir.file("log.bin");
    ASSERT_TRUE(Log.save(Path));

    ExecutionLog Loaded;
    ASSERT_TRUE(ExecutionLog::load(Path, Loaded));
    expectLogsEqual(Log, Loaded);
    // The on-disk encoding does not change the log's byteSize accounting
    // (E2's currency).
    EXPECT_EQ(Loaded.byteSize(), Log.byteSize());
  }
}

TEST(LogTest, TruncatedLoadFailsCleanlyBothFormats) {
  auto R = runProgram(R"(
chan c;
func child(int k) { send(c, k * 3); }
func main() { spawn child(7); print(recv(c)); }
)");
  ScopedTempDir TmpDir;
  std::string Path = TmpDir.file("log.bin");
  ASSERT_TRUE(R.Log.save(Path));
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(readFileBytes(Path, Bytes));
  ASSERT_FALSE(Bytes.empty());
  // Keep the exhaustive every-byte-offset sweep cheap.
  ASSERT_LT(Bytes.size(), 64u * 1024u);

  // A sentinel the failed loads must leave untouched.
  ExecutionLog Sentinel;
  Sentinel.Procs.resize(1);
  Sentinel.Procs[0].RootFunc = 7777;

  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    LogWriter Prefix;
    for (size_t I = 0; I != Len; ++I)
      Prefix.u8(Bytes[I]);
    ASSERT_TRUE(Prefix.writeFile(Path));
    EXPECT_FALSE(ExecutionLog::load(Path, Sentinel))
        << "prefix of " << Len << " bytes loaded";
    ASSERT_EQ(Sentinel.Procs.size(), 1u);
    EXPECT_EQ(Sentinel.Procs[0].RootFunc, 7777u);
  }
}

} // namespace
