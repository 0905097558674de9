//===- tests/interp_test.cpp - One interpreter, held to the theorems -----===//
//
// Part of PPD test suite.
//
// The one handler set (vm/Interp.h) under its live policy (Machine) and
// its replay policy (core/Replay.cpp), across the examples/ corpus,
// many seeds, every run mode, and awkward quanta (quantum 1 splits every
// fused superinstruction at a budget boundary):
//
//   * the three run modes preempt at the same points, so they agree on
//     outcome, steps, shared memory and output — racy programs included;
//   * pinned v2 log hashes per quantum catch any drift in scheduling,
//     instrumentation or the log encoder (the corpus, generated programs
//     and a 16-worker lock-step program);
//   * constant-operand arithmetic decodes to fused pairs, and a constant
//     zero divisor fails at the unfused pair's step and statement;
//   * every process's FullTrace trace equals its intervals' replays
//     spliced in log order (§5.5, the spec/trace fuzz leg).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Replay.h"
#include "log/LogIO.h"
#include "pardyn/ParallelDynamicGraph.h"
#include "pardyn/RaceDetector.h"
#include "testing/DiffOracles.h"
#include "testing/ProgramGen.h"

using namespace ppd;
using namespace ppd::test;

namespace {

StmtId stmtAtLine(const Program &P, unsigned Line) {
  for (StmtId Id = 0; Id != P.numStmts(); ++Id)
    if (P.stmt(Id)->getLoc().Line == Line && !isa<BlockStmt>(P.stmt(Id)))
      return Id;
  ADD_FAILURE() << "no statement at line " << Line;
  return InvalidId;
}

/// Everything externally observable about one machine run.
struct Observed {
  RunResult Result;
  std::vector<int64_t> Shared;
  std::vector<OutputRecord> Output;
  ExecutionLog Log;
};

Observed runOnce(const CompiledProgram &Prog, const MachineOptions &MOpts) {
  Machine M(Prog, MOpts);
  Observed Out;
  Out.Result = M.run();
  Out.Shared = M.sharedMemory();
  Out.Log = M.takeLog();
  Out.Output = Out.Log.Output;
  return Out;
}

void expectSameOutput(const std::vector<OutputRecord> &A,
                      const std::vector<OutputRecord> &B,
                      const std::string &Label) {
  ASSERT_EQ(A.size(), B.size()) << Label;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Pid, B[I].Pid) << Label << " output " << I;
    EXPECT_EQ(A[I].Value, B[I].Value) << Label << " output " << I;
    EXPECT_EQ(A[I].Stmt, B[I].Stmt) << Label << " output " << I;
  }
}

/// Two runs of one seed in different modes must agree on everything the
/// program did, step counts included.
void expectRunsAgree(const Observed &A, const Observed &B,
                     const std::string &Label) {
  EXPECT_EQ(int(A.Result.Outcome), int(B.Result.Outcome)) << Label;
  EXPECT_EQ(A.Result.Steps, B.Result.Steps) << Label;
  EXPECT_EQ(int(A.Result.Error.Kind), int(B.Result.Error.Kind)) << Label;
  EXPECT_EQ(A.Result.Error.Pid, B.Result.Error.Pid) << Label;
  EXPECT_EQ(A.Result.Error.Stmt, B.Result.Error.Stmt) << Label;
  EXPECT_EQ(A.Result.BreakPid, B.Result.BreakPid) << Label;
  EXPECT_EQ(A.Result.BreakStmt, B.Result.BreakStmt) << Label;
  EXPECT_EQ(A.Shared, B.Shared) << Label;
  expectSameOutput(A.Output, B.Output, Label);
}

std::vector<uint8_t> v2Bytes(const ExecutionLog &Log) {
  ScopedTempDir TmpDir;
  std::string Path = TmpDir.file("log.bin");
  EXPECT_TRUE(Log.save(Path, LogFormat::V2));
  std::vector<uint8_t> Bytes;
  EXPECT_TRUE(readFileBytes(Path, Bytes));
  return Bytes;
}

uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  uint64_t Hash = 1469598103934665603ull;
  for (uint8_t B : Bytes) {
    Hash ^= B;
    Hash *= 1099511628211ull;
  }
  return Hash;
}

// Trace instructions cost no quantum, so Plain, Logging and FullTrace
// runs of one seed interleave identically: same outcome, step count,
// shared memory and output, for the racy program too.
TEST(InterpTest, RunModesAgreeAcrossSeeds) {
  const RunMode Modes[] = {RunMode::Plain, RunMode::Logging,
                           RunMode::FullTrace};
  for (const char *Name : Corpus) {
    auto Prog = compileOk(readCorpusFile(Name));
    ASSERT_TRUE(Prog);
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      Observed PerMode[3];
      for (int M = 0; M != 3; ++M) {
        MachineOptions MOpts;
        MOpts.Seed = Seed;
        MOpts.Mode = Modes[M];
        PerMode[M] = runOnce(*Prog, MOpts);
      }
      for (int M = 1; M != 3; ++M)
        expectRunsAgree(PerMode[0], PerMode[M],
                        std::string(Name) + " seed " + std::to_string(Seed) +
                            " mode 0 vs " + std::to_string(M));
    }
  }
}

// Quantum 1 forces a preemption check between the two halves of every
// fused superinstruction; 2 and 3 land the boundary on every possible
// phase. The v2 log bytes of each instance are pinned: they were recorded
// while the one-instruction switch interpreter still existed and agreed
// with the decoded one byte for byte, so the split at the budget keeps
// the schedule the unfused instruction stream defines.
TEST(InterpTest, V2LogBytesBitIdenticalAcrossQuanta) {
  struct Pin {
    const char *Name;
    uint32_t Quantum;
    uint64_t Hash;
  };
  const Pin Pins[] = {
      {"bank_race.ppl", 1, 0x1c05a99df60ad380ull},
      {"bank_race.ppl", 2, 0xe33faab36711a99cull},
      {"bank_race.ppl", 3, 0xe302a5a40ee12f9aull},
      {"bank_race.ppl", 8, 0x6ed138c0a83dfd27ull},
      {"bounded_buffer.ppl", 1, 0xca725b6940e9cf3full},
      {"bounded_buffer.ppl", 2, 0x4ee136b59f0b417bull},
      {"bounded_buffer.ppl", 3, 0x99a81f011333eb13ull},
      {"bounded_buffer.ppl", 8, 0xf9e7d43ab4f16a73ull},
      {"crash.ppl", 1, 0xfad750f004238fe4ull},
      {"crash.ppl", 2, 0xfad750f004238fe4ull},
      {"crash.ppl", 3, 0xfad750f004238fe4ull},
      {"crash.ppl", 8, 0xfad750f004238fe4ull},
      {"deadlock.ppl", 1, 0xdf78637e09158d2cull},
      {"deadlock.ppl", 2, 0xdf78637e09158d2cull},
      {"deadlock.ppl", 3, 0xdf78637e09158d2cull},
      {"deadlock.ppl", 8, 0xdf78637e09158d2cull},
      {"fig41.ppl", 1, 0x12f43fe88da540ecull},
      {"fig41.ppl", 2, 0x12f43fe88da540ecull},
      {"fig41.ppl", 3, 0x12f43fe88da540ecull},
      {"fig41.ppl", 8, 0x12f43fe88da540ecull},
  };
  for (const Pin &P : Pins) {
    auto Prog = compileOk(readCorpusFile(P.Name));
    ASSERT_TRUE(Prog);
    MachineOptions MOpts;
    MOpts.Seed = 7;
    MOpts.Mode = RunMode::Logging;
    MOpts.Quantum = P.Quantum;
    uint64_t Hash = fnv1a(v2Bytes(runOnce(*Prog, MOpts).Log));
    EXPECT_EQ(Hash, P.Hash) << P.Name << " quantum " << P.Quantum
                            << ": v2 log drifted; actual 0x" << std::hex
                            << Hash;
  }
}

/// Sixteen workers in lock-step over one semaphore and a bounded channel:
/// every round blocks and wakes processes on both, so the runnable set
/// changes many times per quantum.
std::string lockStepProgram() {
  return R"(
shared int total;
shared int tally;
sem lock = 1;
sem done;
chan ch[4];
func step(int x, int r) {
  int y = (x * 31 + r + 7) % 1009;
  P(lock);
  total = total + y % 97;
  tally = tally + 1;
  V(lock);
  send(ch, y % 13);
  return y;
}
func worker(int w) {
  int r = 0;
  int x = w * 101 + 3;
  for (r = 0; r < 12; r = r + 1) x = step(x, r);
  V(done);
}
func main() {
  int i = 0;
  int sum = 0;
  for (i = 0; i < 16; i = i + 1) spawn worker(i);
  for (i = 0; i < 192; i = i + 1) sum = sum + recv(ch);
  for (i = 0; i < 16; i = i + 1) P(done);
  print(sum);
  print(total);
  print(tally);
}
)";
}

// The same discipline as V2LogBytesBitIdenticalAcrossQuanta, for shapes
// the corpus does not have: generated compute programs (long constant
// arithmetic), generated semaphore-heavy programs and a 16-worker
// lock-step program. The hashes were recorded before constant-operand
// arithmetic was fused and before the scheduler kept its runnable set
// across rounds, so they hold both to the schedule and the log of the
// unfused stream and the per-round rebuild.
TEST(InterpTest, GeneratedAndLockStepV2LogsPinned) {
  struct Case {
    const char *Label;
    std::string Source;
  };
  std::vector<Case> Cases;
  for (uint64_t Seed : {1u, 2u}) {
    ppd::testing::GenOptions Opts;
    Opts.Profile = ppd::testing::GenProfile::Compute;
    Cases.push_back({"compute", ppd::testing::generateProgram(Seed, Opts)
                                    .render()});
    Opts.Profile = ppd::testing::GenProfile::SyncHeavy;
    Cases.push_back({"sync-heavy", ppd::testing::generateProgram(Seed, Opts)
                                       .render()});
  }
  Cases.push_back({"lock-step", lockStepProgram()});
  const uint32_t Quanta[] = {1, 2, 3, 8};
  const uint64_t Pins[5][4] = {
      {0x369c7448fd5ec71full, 0x369c7448fd5ec71full, 0x369c7448fd5ec71full,
       0x369c7448fd5ec71full},
      {0x0ebd4a54ad4f58ebull, 0xab7134970187bc3dull, 0x5756b6492bb800cdull,
       0xcf31e8866387e1b5ull},
      {0xce787befa62ad138ull, 0xce787befa62ad138ull, 0xce787befa62ad138ull,
       0xce787befa62ad138ull},
      {0x2ff98fe8c1211b0full, 0x72741cc5fe469b82ull, 0x469a0ace1b26beb2ull,
       0xaba9c90325480d12ull},
      {0x94c8d14da5f088d2ull, 0xfcddb00ddeb1e521ull, 0x12bd658ee0e319dbull,
       0xe3deab6ba3eb3befull},
  };
  for (size_t C = 0; C != Cases.size(); ++C) {
    auto Prog = compileOk(Cases[C].Source);
    ASSERT_TRUE(Prog);
    for (size_t Q = 0; Q != 4; ++Q) {
      MachineOptions MOpts;
      MOpts.Seed = 7;
      MOpts.Mode = RunMode::Logging;
      MOpts.Quantum = Quanta[Q];
      Observed O = runOnce(*Prog, MOpts);
      if (C == 4) {
        EXPECT_EQ(int(O.Result.Outcome), int(RunResult::Status::Completed));
        ASSERT_EQ(O.Output.size(), 3u);
        EXPECT_EQ(O.Output[2].Value, 192);
      }
      uint64_t Hash = fnv1a(v2Bytes(O.Log));
      EXPECT_EQ(Hash, Pins[C][Q])
          << "case " << C << " (" << Cases[C].Label << ") quantum "
          << Quanta[Q] << ": v2 log drifted; actual 0x" << std::hex << Hash;
    }
  }
}

// The decoder fuses PushConst with the arithmetic operator after it, keeps
// the operator's slot decoded as itself (a jump may land there, and a
// split pair resumes there), and leaves PushConst + Cmp* alone: the
// compare is already the first half of JumpIfCmp.
TEST(InterpTest, ConstantArithmeticFusesInDecoder) {
  auto Prog = compileOk("func main() {\n"
                        "  int s = 5;\n"
                        "  s = (s * 11 + 3) % 1000003;\n"
                        "  s = (s - 4) / 2;\n"
                        "  if (s < 7) s = 0;\n"
                        "  print(s);\n"
                        "}\n");
  ASSERT_TRUE(Prog);
  for (bool Emu : {false, true}) {
    SCOPED_TRACE(Emu ? "emulation package" : "object code");
    const CompiledFunction &Main = Prog->func(Prog->MainIndex);
    const Chunk &Code = Emu ? Main.Emu : Main.Object;
    const DecodedChunk &D = Emu ? Main.EmuDecoded : Main.ObjectDecoded;
    std::vector<std::pair<DOp, int64_t>> Fused;
    bool CmpKept = false;
    for (uint32_t Pc = 0; Pc + 1 < D.size(); ++Pc) {
      const DecodedInstr &I = D.at(Pc);
      switch (I.Opcode) {
      case DOp::AddImm:
      case DOp::SubImm:
      case DOp::MulImm:
      case DOp::DivImm:
      case DOp::ModImm:
        Fused.push_back({I.Opcode, I.Imm});
        EXPECT_EQ(Code.at(Pc).Opcode, Op::PushConst);
        EXPECT_EQ(uint8_t(D.at(Pc + 1).Opcode),
                  uint8_t(Code.at(Pc + 1).Opcode))
            << "second half keeps its plain decoding";
        break;
      case DOp::PushConst:
        CmpKept |= D.at(Pc + 1).Opcode == DOp::JumpIfCmp &&
                   Code.at(Pc + 1).Opcode == Op::CmpLt &&
                   Code.at(Pc + 2).Opcode == Op::JumpIfFalse;
        break;
      default:
        break;
      }
    }
    const std::vector<std::pair<DOp, int64_t>> Expected = {
        {DOp::MulImm, 11}, {DOp::AddImm, 3}, {DOp::ModImm, 1000003},
        {DOp::SubImm, 4},  {DOp::DivImm, 2}};
    EXPECT_EQ(Fused, Expected);
    EXPECT_TRUE(CmpKept) << "PushConst; CmpLt; JumpIfFalse is PushConst + "
                            "JumpIfCmp";
  }
  EXPECT_EQ(runProgram("func main() { int s = 5;\n"
                       "  s = (s * 11 + 3) % 1000003;\n"
                       "  s = (s - 4) / 2; print(s); }")
                .PrintedValues,
            std::vector<int64_t>{27});
}

// A constant zero divisor fails where the unfused PushConst + Div/Mod
// pair failed: same kind, process, statement and step count, at quantum
// 1 (the fused pair splits at every slice boundary), 2, 3 and 8. The
// steps and statements were recorded before the pair was fused. Replay of
// the failing interval re-hits the failure at the same statement.
TEST(InterpTest, ConstantZeroDivisorFailsAsUnfused) {
  struct Case {
    const char *Op;
    RuntimeErrorKind Kind;
    uint64_t Steps[4]; ///< at each of Quanta.
  };
  const Case Cases[] = {
      {"/", RuntimeErrorKind::DivideByZero, {181, 169, 201, 199}},
      {"%", RuntimeErrorKind::ModuloByZero, {181, 169, 201, 199}},
  };
  const uint32_t Quanta[] = {1, 2, 3, 8};
  for (const Case &C : Cases) {
    std::string Source = "shared int g;\n"
                         "func worker(int x) {\n"
                         "  int i = 0;\n"
                         "  for (i = 0; i < 5; i = i + 1) g = g + x * 3;\n"
                         "  print(x " +
                         std::string(C.Op) +
                         " 0);\n" // line 5
                         "}\n"
                         "func main() {\n"
                         "  int i = 0;\n"
                         "  spawn worker(7);\n"
                         "  for (i = 0; i < 20; i = i + 1) g = g + i;\n"
                         "  print(g);\n"
                         "}\n";
    auto Prog = compileOk(Source);
    ASSERT_TRUE(Prog);
    StmtId Failing = stmtAtLine(*Prog->Ast, 5);
    for (size_t Q = 0; Q != 4; ++Q) {
      SCOPED_TRACE(std::string(C.Op) + " quantum " +
                   std::to_string(Quanta[Q]));
      MachineOptions MOpts;
      MOpts.Seed = 1;
      MOpts.Quantum = Quanta[Q];
      Observed O = runOnce(*Prog, MOpts);
      ASSERT_EQ(int(O.Result.Outcome), int(RunResult::Status::Failed));
      EXPECT_EQ(int(O.Result.Error.Kind), int(C.Kind));
      EXPECT_EQ(O.Result.Error.Pid, 1u);
      EXPECT_EQ(O.Result.Error.Stmt, Failing);
      EXPECT_EQ(O.Result.Steps, C.Steps[Q]);

      LogIndex Index(O.Log);
      const LogInterval *Open = Index.lastOpenInterval(1);
      ASSERT_NE(Open, nullptr) << "failure leaves the interval open";
      ReplayEngine Engine(*Prog);
      ReplayResult Res = Engine.replay(O.Log, 1, *Open);
      ASSERT_TRUE(Res.Ok) << Res.Error;
      EXPECT_TRUE(Res.FailureHit);
      EXPECT_EQ(int(Res.Failure.Kind), int(C.Kind));
      EXPECT_EQ(Res.Failure.Pid, 1u);
      EXPECT_EQ(Res.Failure.Stmt, Failing);
    }
  }
}

// Golden fixture: the v2 log bytes of one pinned execution instance,
// hashed. Catches any accidental change to scheduling, instrumentation or
// the log encoding. If a *deliberate* format or instrumentation change
// lands, re-pin the constant from the test's failure message.
TEST(InterpTest, GoldenV2LogFixture) {
  auto Prog = compileOk(readCorpusFile("bounded_buffer.ppl"));
  ASSERT_TRUE(Prog);
  MachineOptions MOpts;
  MOpts.Seed = 3;
  MOpts.Mode = RunMode::Logging;
  MOpts.Quantum = 3;
  Observed O = runOnce(*Prog, MOpts);
  EXPECT_EQ(int(O.Result.Outcome), int(RunResult::Status::Completed));
  uint64_t Hash = fnv1a(v2Bytes(O.Log));
  EXPECT_EQ(Hash, 0x398f02cd27ee92a9ull)
      << "golden v2 log drifted; actual 0x" << std::hex << Hash;
}

// §5.5 on the corpus: on every race-free instance, each process's
// FullTrace trace equals its intervals' replays spliced in log order —
// completed, failed (crash.ppl) and deadlocked processes alike.
TEST(InterpTest, ReplayTracesSpliceToFullTrace) {
  for (const char *Name : Corpus) {
    auto Prog = compileOk(readCorpusFile(Name));
    ASSERT_TRUE(Prog);
    unsigned Checked = 0;
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      for (uint32_t Quantum : {1u, 3u, 8u}) {
        MachineOptions MOpts;
        MOpts.Seed = Seed;
        MOpts.Quantum = Quantum;
        ExecutionLog Log = runOnce(*Prog, MOpts).Log;
        ParallelDynamicGraph Graph(Log, Prog->Symbols->NumSharedVars);
        RaceDetector Detector(Graph, *Prog->Symbols);
        if (!Detector.detect().Races.empty())
          continue;
        EXPECT_EQ(ppd::testing::checkReplayTheorem(*Prog, MOpts), "")
            << Name << " seed " << Seed << " quantum " << Quantum;
        ++Checked;
      }
    }
    if (std::string(Name) != "bank_race.ppl") {
      EXPECT_GT(Checked, 0u) << Name << " never ran race-free";
    }
  }
}

// Breakpoints fire on the statement transition before the statement
// executes, at the same step in every mode — even at quantum 1, where the
// loop re-enters mid-way through fused superinstructions and FullTrace
// meets the transition at a free trace instruction.
TEST(InterpTest, BreakpointAgreesAtQuantumOne) {
  auto Prog = compileOk("shared int g;\n"
                        "func main() {\n"
                        "  int i = 0;\n"
                        "  for (i = 0; i < 10; i = i + 1)\n"
                        "    g = g + i;\n"
                        "  g = 99;\n" // line 6 ← break here
                        "}\n");
  ASSERT_TRUE(Prog);
  StmtId Break = stmtAtLine(*Prog->Ast, 6);
  MachineOptions MOpts;
  MOpts.Quantum = 1;
  MOpts.Breakpoints = {Break};
  Observed Logged = runOnce(*Prog, MOpts);
  ASSERT_EQ(int(Logged.Result.Outcome), int(RunResult::Status::Breakpoint));
  EXPECT_EQ(Logged.Result.BreakStmt, Break);
  // The breakpoint halted *before* line 6 executed.
  EXPECT_EQ(Logged.Shared[0], 45);
  for (RunMode Mode : {RunMode::Plain, RunMode::FullTrace}) {
    MOpts.Mode = Mode;
    expectRunsAgree(Logged, runOnce(*Prog, MOpts),
                    "breakpoint at quantum 1, mode " +
                        std::to_string(int(Mode)));
  }
}

} // namespace
