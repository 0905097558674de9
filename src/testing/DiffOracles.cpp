//===- testing/DiffOracles.cpp --------------------------------------------===//
//
// Part of PPD. See DiffOracles.h.
//
//===----------------------------------------------------------------------===//

#include "testing/DiffOracles.h"

#include "compiler/Compiler.h"
#include "core/Controller.h"
#include "core/DeadlockAnalyzer.h"
#include "core/DebugSession.h"
#include "core/Replay.h"
#include "core/ReplayService.h"
#include "log/BufferPool.h"
#include "log/ExecutionLog.h"
#include "log/LogIO.h"
#include "log/PageStore.h"
#include "pardyn/ParallelDynamicGraph.h"
#include "pardyn/RaceDetector.h"
#include "log/ProgramDb.h"
#include "server/DebugServer.h"
#include "server/Protocol.h"
#include "stream/Ingest.h"
#include "stream/StreamClient.h"
#include "support/Rng.h"
#include "vm/Machine.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <unistd.h>

using namespace ppd;
using namespace ppd::testing;

namespace {

//===----------------------------------------------------------------------===//
// One machine run, with everything the oracles compare captured by value.
//===----------------------------------------------------------------------===//

struct Observed {
  RunResult Result;
  std::vector<int64_t> Shared;
  std::vector<OutputRecord> Output;
  std::vector<TraceBuffer> Traces;
  std::vector<std::vector<int64_t>> Privates;
  std::vector<uint8_t> Statuses;
  /// Per process, the trace event open in its innermost frame when the
  /// machine stopped (FullTrace runs; InvalidId otherwise).
  std::vector<uint32_t> OpenEvents;
  ExecutionLog Log;
};

Observed runOnce(const CompiledProgram &Prog, const MachineOptions &Opts) {
  Machine M(Prog, Opts);
  Observed Obs;
  Obs.Result = M.run();
  Obs.Shared = M.sharedMemory();
  Obs.Output = M.output();
  Obs.Traces = M.traces();
  for (const Process &P : M.processes()) {
    Obs.Privates.push_back(P.PrivateGlobals);
    Obs.Statuses.push_back(uint8_t(P.Status));
    Obs.OpenEvents.push_back(P.Frames.empty() ? InvalidId
                                              : P.Frames.back().OpenEvent);
  }
  Obs.Log = M.takeLog();
  return Obs;
}

MachineOptions baseOptions(uint64_t SchedSeed, uint32_t Quantum,
                           const DiffConfig &Config) {
  MachineOptions Opts;
  Opts.Seed = SchedSeed;
  Opts.Quantum = Quantum;
  Opts.MaxSteps = Config.MaxSteps;
  // Inputs derived from the scheduling seed: plenty of streams so spawned
  // processes never run dry, values small enough to keep arithmetic tame.
  Rng InputRng(SchedSeed ^ 0x9e3779b97f4a7c15ull);
  Opts.ProcessInputs.resize(8);
  for (auto &Stream : Opts.ProcessInputs)
    for (int I = 0; I != 16; ++I)
      Stream.push_back(int64_t(InputRng.nextBelow(97)));
  return Opts;
}

//===----------------------------------------------------------------------===//
// Field-wise comparisons. Every cmp* returns "" on agreement or a message
// naming the first mismatching field — the Detail of a DiffReport.
//===----------------------------------------------------------------------===//

std::string fmtErr(const RuntimeError &E) {
  std::ostringstream Os;
  Os << runtimeErrorName(E.Kind) << " pid=" << E.Pid << " stmt=" << E.Stmt;
  return Os.str();
}

std::string cmpOutput(const std::vector<OutputRecord> &A,
                      const std::vector<OutputRecord> &B) {
  if (A.size() != B.size())
    return "output count " + std::to_string(A.size()) + " vs " +
           std::to_string(B.size());
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Pid != B[I].Pid || A[I].Value != B[I].Value ||
        A[I].Stmt != B[I].Stmt)
      return "output[" + std::to_string(I) + "] (" +
             std::to_string(A[I].Pid) + "," + std::to_string(A[I].Value) +
             ",s" + std::to_string(A[I].Stmt) + ") vs (" +
             std::to_string(B[I].Pid) + "," + std::to_string(B[I].Value) +
             ",s" + std::to_string(B[I].Stmt) + ")";
  return {};
}

std::string cmpI64Vec(const char *What, const std::vector<int64_t> &A,
                      const std::vector<int64_t> &B) {
  if (A == B)
    return {};
  std::ostringstream Os;
  Os << What << " differs (size " << A.size() << " vs " << B.size() << ")";
  for (size_t I = 0; I != std::min(A.size(), B.size()); ++I)
    if (A[I] != B[I]) {
      Os << ": [" << I << "] " << A[I] << " vs " << B[I];
      break;
    }
  return Os.str();
}

/// Outcome, error, and observable state; \p CompareSteps additionally
/// demands identical step counts (same-chunk comparisons only).
std::string cmpRunPair(const Observed &A, const Observed &B,
                       bool CompareSteps) {
  if (A.Result.Outcome != B.Result.Outcome)
    return "outcome " + std::to_string(int(A.Result.Outcome)) + " vs " +
           std::to_string(int(B.Result.Outcome));
  if (A.Result.Error.Kind != B.Result.Error.Kind ||
      A.Result.Error.Pid != B.Result.Error.Pid ||
      A.Result.Error.Stmt != B.Result.Error.Stmt)
    return "error " + fmtErr(A.Result.Error) + " vs " +
           fmtErr(B.Result.Error);
  if (A.Result.BreakPid != B.Result.BreakPid ||
      A.Result.BreakStmt != B.Result.BreakStmt)
    return "breakpoint position differs";
  if (CompareSteps && A.Result.Steps != B.Result.Steps)
    return "steps " + std::to_string(A.Result.Steps) + " vs " +
           std::to_string(B.Result.Steps);
  if (auto D = cmpI64Vec("shared", A.Shared, B.Shared); !D.empty())
    return D;
  if (auto D = cmpOutput(A.Output, B.Output); !D.empty())
    return D;
  if (A.Statuses != B.Statuses)
    return "process statuses differ (" + std::to_string(A.Statuses.size()) +
           " vs " + std::to_string(B.Statuses.size()) + " procs)";
  if (A.Privates.size() != B.Privates.size())
    return "private-global segment count differs";
  for (size_t P = 0; P != A.Privates.size(); ++P)
    if (auto D = cmpI64Vec("private globals", A.Privates[P], B.Privates[P]);
        !D.empty())
      return "pid " + std::to_string(P) + ": " + D;
  return {};
}

std::string cmpRecord(const LogRecord &A, const LogRecord &B) {
  if (A.Kind != B.Kind)
    return "kind";
  if (A.Id != B.Id)
    return "id";
  if (A.Flags != B.Flags)
    return "flags";
  if (A.Value != B.Value)
    return "value";
  if (A.Seq != B.Seq)
    return "seq";
  if (A.PartnerSeq != B.PartnerSeq)
    return "partner";
  if (A.Sync != B.Sync)
    return "sync kind";
  if (A.Stmt != B.Stmt)
    return "stmt";
  if (A.Vars.size() != B.Vars.size())
    return "var count";
  for (size_t V = 0; V != A.Vars.size(); ++V) {
    if (A.Vars[V].Var != B.Vars[V].Var)
      return "var id";
    if (A.Vars[V].Values.size() != B.Vars[V].Values.size())
      return "var width";
    for (size_t E = 0; E != A.Vars[V].Values.size(); ++E)
      if (A.Vars[V].Values[E] != B.Vars[V].Values[E])
        return "var value";
  }
  auto CmpSet = [](const SmallVec<uint32_t, 4> &X,
                   const SmallVec<uint32_t, 4> &Y) {
    if (X.size() != Y.size())
      return false;
    for (size_t I = 0; I != X.size(); ++I)
      if (X[I] != Y[I])
        return false;
    return true;
  };
  if (!CmpSet(A.ReadSet, B.ReadSet))
    return "read set";
  if (!CmpSet(A.WriteSet, B.WriteSet))
    return "write set";
  return {};
}

std::string cmpLogs(const ExecutionLog &A, const ExecutionLog &B) {
  if (A.Procs.size() != B.Procs.size())
    return "process count " + std::to_string(A.Procs.size()) + " vs " +
           std::to_string(B.Procs.size());
  for (size_t P = 0; P != A.Procs.size(); ++P) {
    const ProcessLog &PA = A.Procs[P], &PB = B.Procs[P];
    if (PA.Pid != PB.Pid || PA.RootFunc != PB.RootFunc ||
        PA.Args != PB.Args || PA.PrelogCount != PB.PrelogCount)
      return "pid " + std::to_string(P) + " header differs";
    if (PA.Records.size() != PB.Records.size())
      return "pid " + std::to_string(P) + " record count " +
             std::to_string(PA.Records.size()) + " vs " +
             std::to_string(PB.Records.size());
    for (size_t R = 0; R != PA.Records.size(); ++R)
      if (auto D = cmpRecord(PA.Records[R], PB.Records[R]); !D.empty())
        return "pid " + std::to_string(P) + " record " + std::to_string(R) +
               ": " + D + " differs";
  }
  return cmpOutput(A.Output, B.Output);
}

std::string cmpMismatches(const std::vector<ReplayMismatch> &A,
                          const std::vector<ReplayMismatch> &B) {
  if (A.size() != B.size())
    return "postlog-mismatch count differs";
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Var != B[I].Var || A[I].Index != B[I].Index ||
        A[I].Expected != B[I].Expected || A[I].Actual != B[I].Actual)
      return "postlog mismatch " + std::to_string(I) + " differs";
  return {};
}

std::string cmpReplay(const ReplayResult &A, const ReplayResult &B) {
  if (A.Ok != B.Ok)
    return std::string("ok ") + (A.Ok ? "true" : "false") + " vs " +
           (B.Ok ? "true" : "false");
  if (A.Partial != B.Partial)
    return "partial flag differs";
  if (A.FailureHit != B.FailureHit)
    return "failure-hit flag differs";
  if (A.FailureHit && (A.Failure.Kind != B.Failure.Kind ||
                       A.Failure.Pid != B.Failure.Pid ||
                       A.Failure.Stmt != B.Failure.Stmt))
    return "failure " + fmtErr(A.Failure) + " vs " + fmtErr(B.Failure);
  if (A.Diverged != B.Diverged)
    return "diverged flag differs";
  if (A.Error != B.Error)
    return "error '" + A.Error + "' vs '" + B.Error + "'";
  if (auto D = cmpMismatches(A.PostlogMismatches, B.PostlogMismatches);
      !D.empty())
    return D;
  if (A.Instructions != B.Instructions)
    return "instructions " + std::to_string(A.Instructions) + " vs " +
           std::to_string(B.Instructions);
  if (A.Events.Events.size() != B.Events.Events.size())
    return "event count " + std::to_string(A.Events.Events.size()) +
           " vs " + std::to_string(B.Events.Events.size());
  for (size_t I = 0; I != A.Events.Events.size(); ++I)
    if (!(A.Events.Events[I] == B.Events.Events[I]))
      return "event " + std::to_string(I) + " differs";
  if (auto D = cmpI64Vec("shared", A.Shared, B.Shared); !D.empty())
    return D;
  if (auto D = cmpI64Vec("private globals", A.PrivateGlobals,
                         B.PrivateGlobals);
      !D.empty())
    return D;
  if (auto D = cmpI64Vec("root slots", A.RootSlots, B.RootSlots); !D.empty())
    return D;
  if (auto D = cmpOutput(A.Output, B.Output); !D.empty())
    return D;
  if (A.HasReturn != B.HasReturn || A.ReturnValue != B.ReturnValue)
    return "return value differs";
  return {};
}

//===----------------------------------------------------------------------===//
// spec/race: Defs 6.1–6.4 evaluated from scratch over what a FullTrace run
// actually did — its trace's accesses to shared variables, placed in
// internal edges by its own sync records. It shares no code with the
// machine's logged READ/WRITE sets or with ParallelDynamicGraph, so a
// dropped access or a misordered edge shows as a race list that differs.
//===----------------------------------------------------------------------===//

/// Receive expressions \p E evaluates itself (a call's callee issues its
/// own sync records, as its own statements).
unsigned countRecvs(const Expr *E) {
  if (!E)
    return 0;
  switch (E->getKind()) {
  case ExprKind::Recv:
    return 1;
  case ExprKind::ArrayIndex:
    return countRecvs(cast<ArrayIndexExpr>(E)->Index.get());
  case ExprKind::Unary:
    return countRecvs(cast<UnaryExpr>(E)->Operand.get());
  case ExprKind::Binary:
    return countRecvs(cast<BinaryExpr>(E)->Lhs.get()) +
           countRecvs(cast<BinaryExpr>(E)->Rhs.get());
  case ExprKind::Call: {
    unsigned N = 0;
    for (const ExprPtr &Arg : cast<CallExpr>(E)->Args)
      N += countRecvs(Arg.get());
    return N;
  }
  case ExprKind::IntLit:
  case ExprKind::VarRef:
  case ExprKind::Input:
    return 0;
  }
  return 0;
}

constexpr size_t NumSyncKinds = size_t(SyncKind::Stopped) + 1;
using SyncBudget = std::array<unsigned, NumSyncKinds>;

/// The sync records one execution of \p S can issue itself, by kind.
/// \p Root: the statement runs in its process's root function, where a
/// return ends the process.
SyncBudget syncBudget(const Stmt &S, bool Root) {
  SyncBudget B{};
  auto Own = [&](SyncKind K) { ++B[size_t(K)]; };
  unsigned &Recvs = B[size_t(SyncKind::ChanRecv)];
  switch (S.getKind()) {
  case StmtKind::Block:
    break;
  case StmtKind::VarDecl:
    Recvs = countRecvs(cast<VarDeclStmt>(&S)->Init.get());
    break;
  case StmtKind::Assign:
    Recvs = countRecvs(cast<AssignStmt>(&S)->Index.get()) +
            countRecvs(cast<AssignStmt>(&S)->Value.get());
    break;
  case StmtKind::If:
    Recvs = countRecvs(cast<IfStmt>(&S)->Cond.get());
    break;
  case StmtKind::While:
    Recvs = countRecvs(cast<WhileStmt>(&S)->Cond.get());
    break;
  case StmtKind::For: // its event is the condition's.
    Recvs = countRecvs(cast<ForStmt>(&S)->Cond.get());
    break;
  case StmtKind::Return:
    Recvs = countRecvs(cast<ReturnStmt>(&S)->Value.get());
    if (Root)
      Own(SyncKind::ProcEnd);
    break;
  case StmtKind::Expr:
    Recvs = countRecvs(cast<ExprStmt>(&S)->Call.get());
    break;
  case StmtKind::P:
    Own(SyncKind::SemAcquire);
    break;
  case StmtKind::V:
    Own(SyncKind::SemSignal);
    break;
  case StmtKind::Send: // a blocking send resumes with a second record.
    Recvs = countRecvs(cast<SendStmt>(&S)->Value.get());
    Own(SyncKind::ChanSend);
    Own(SyncKind::ChanSendUnblock);
    break;
  case StmtKind::Spawn:
    for (const ExprPtr &Arg : cast<SpawnStmt>(&S)->Args)
      Recvs += countRecvs(Arg.get());
    Own(SyncKind::SpawnChild);
    break;
  case StmtKind::Print:
    Recvs = countRecvs(cast<PrintStmt>(&S)->Value.get());
    break;
  }
  return B;
}

/// One internal edge's shared READ/WRITE sets, as SharedIdx lists.
struct EdgeAccesses {
  std::vector<uint32_t> Reads, Writes;
};

/// Places every shared access of one process's \p Trace in an internal
/// edge. Edge k ends at sync record k (record 0 is ProcStart); edge
/// Sync.size() is a final edge no record ends, which a machine that
/// flushes its trailing accesses never leaves non-empty. Returns "" or
/// why the records and the trace do not fit together.
///
/// Def 6.1 orders a process's events by its sync nodes, and a statement
/// is one trace event, so a statement that syncs straddles a node: it
/// reads before its sync records and writes after them (`g = recv(c)`
/// writes g in the edge the receive starts; `send(c, g)` reads g in the
/// edge the send ends). A statement that calls a function likewise reads
/// before the callee's records and writes after them. The statement's own
/// records are matched by statement id as it calls a function and as it
/// ends, at most as many of each kind as syncBudget allows.
std::string placeAccesses(const CompiledProgram &Prog,
                          const std::vector<const LogRecord *> &Sync,
                          const TraceBuffer &Trace,
                          std::vector<EdgeAccesses> &Edges) {
  const SymbolTable &Symbols = *Prog.Symbols;
  Edges.assign(Sync.size() + 1, {});
  size_t K = 1; // the next record to issue: accesses now land in edge K.
  struct OpenStmt {
    const TraceEvent *Event = nullptr;
    size_t StartEdge = 0;
    SyncBudget Budget{};
  };
  std::vector<OpenStmt> Frames(1); // the open statement per call depth.
  auto Issue = [&](OpenStmt &O) {
    while (K < Sync.size() && Sync[K]->Stmt == O.Event->Stmt &&
           O.Budget[size_t(Sync[K]->Sync)] != 0)
      --O.Budget[size_t(Sync[K++]->Sync)];
  };
  auto Place = [&](const auto &Accesses, size_t Edge,
                   std::vector<uint32_t> EdgeAccesses::*Set) {
    for (const TraceAccess &A : Accesses)
      if (const VarInfo &Info = Symbols.var(A.Var);
          Info.Kind == VarKind::SharedGlobal)
        (Edges[Edge].*Set).push_back(Info.SharedIndex);
  };
  auto Close = [&](OpenStmt &O) {
    if (!O.Event)
      return;
    Issue(O);
    Place(O.Event->Reads, O.StartEdge, &EdgeAccesses::Reads);
    Place(O.Event->Writes, K, &EdgeAccesses::Writes);
    O.Event = nullptr;
  };
  for (const TraceEvent &E : Trace.Events) {
    switch (E.Kind) {
    case TraceEventKind::Stmt:
      Close(Frames.back());
      Frames.back() = {&E, K,
                       syncBudget(*Prog.Ast->stmt(E.Stmt), Frames.size() == 1)};
      break;
    case TraceEventKind::CallBegin:
      if (Frames.back().Event)
        Issue(Frames.back()); // receives among the arguments.
      Frames.emplace_back();
      break;
    case TraceEventKind::CallEnd:
      if (Frames.size() == 1)
        return "event " + std::to_string(E.Index) + " ends an unopened call";
      Close(Frames.back());
      Frames.pop_back();
      break;
    case TraceEventKind::CallSkipped:
      return "event " + std::to_string(E.Index) + " is a skipped call";
    }
  }
  while (!Frames.empty()) {
    Close(Frames.back());
    Frames.pop_back();
  }
  // What is left ends the process: the implicit return of its root
  // function, or the flush of a frozen process's trailing accesses.
  for (; K < Sync.size(); ++K)
    if (!(Sync[K]->Sync == SyncKind::ProcEnd && Sync[K]->Stmt == InvalidId) &&
        Sync[K]->Sync != SyncKind::Stopped)
      return "sync record " + std::to_string(K) + " (" +
             syncKindName(Sync[K]->Sync) + ", s" +
             std::to_string(Sync[K]->Stmt) + ") matches no traced statement";
  for (EdgeAccesses &Edge : Edges)
    for (std::vector<uint32_t> *Set : {&Edge.Reads, &Edge.Writes}) {
      std::sort(Set->begin(), Set->end());
      Set->erase(std::unique(Set->begin(), Set->end()), Set->end());
    }
  return {};
}

/// Defs 6.1–6.4 over the FullTrace run \p Full: fills \p Out with its races
/// in the detector's canonical order and returns "", or returns why the
/// run cannot be evaluated. The closure is quadratic in the sync nodes.
std::string specRaces(const CompiledProgram &Prog, const Observed &Full,
                      std::vector<Race> &Out) {
  const ExecutionLog &Log = Full.Log;
  std::vector<std::vector<const LogRecord *>> Sync(Log.Procs.size());
  size_t Total = 0;
  uint64_t MaxSeq = 0;
  for (size_t P = 0; P != Log.Procs.size(); ++P)
    for (const LogRecord &R : Log.Procs[P].Records)
      if (R.Kind == LogRecordKind::SyncEvent) {
        Sync[P].push_back(&R);
        MaxSeq = std::max(MaxSeq, R.Seq);
        ++Total;
      }

  // Happens-before over the sync nodes: a word-packed transitive closure
  // of per-process order and partner → node, filled in global Seq order
  // (every such edge raises Seq, so Seq order is topological).
  std::vector<std::pair<uint32_t, uint32_t>> BySeq(size_t(MaxSeq) + 1,
                                                   {InvalidId, InvalidId});
  std::vector<std::vector<uint32_t>> IdOf(Sync.size());
  uint32_t Next = 0;
  for (uint32_t P = 0; P != Sync.size(); ++P)
    for (uint32_t K = 0; K != Sync[P].size(); ++K) {
      BySeq[Sync[P][K]->Seq] = {P, K};
      IdOf[P].push_back(Next++);
    }
  const size_t Words = (Total + 63) / 64;
  std::vector<uint64_t> Reach(Total * Words, 0); ///< Reach[n]: ancestors.
  auto RowOf = [&](uint32_t Id) { return Reach.data() + size_t(Id) * Words; };
  auto Merge = [&](uint64_t *Row, uint32_t Pred) {
    const uint64_t *From = RowOf(Pred);
    for (size_t W = 0; W != Words; ++W)
      Row[W] |= From[W];
    Row[Pred / 64] |= uint64_t(1) << (Pred % 64);
  };
  for (const auto &[P, K] : BySeq) {
    if (P == InvalidId)
      continue;
    uint64_t *Row = RowOf(IdOf[P][K]);
    if (K > 0)
      Merge(Row, IdOf[P][K - 1]);
    uint64_t Partner = Sync[P][K]->PartnerSeq;
    if (Partner != NoPartner) {
      if (Partner >= BySeq.size() || BySeq[Partner].first == InvalidId)
        return "dangling partner seq " + std::to_string(Partner);
      auto [PP, PK] = BySeq[Partner];
      Merge(Row, IdOf[PP][PK]);
    }
  }
  auto Reaches = [&](uint32_t A, uint32_t B) { // A == B or A → B
    return A == B || ((RowOf(B)[A / 64] >> (A % 64)) & 1);
  };

  std::vector<std::vector<EdgeAccesses>> Edges(Sync.size());
  for (uint32_t P = 0; P != Sync.size(); ++P)
    if (auto D = placeAccesses(Prog, Sync[P], Full.Traces[P], Edges[P]);
        !D.empty())
      return "pid " + std::to_string(P) + ": " + D;

  // Def 6.1 over edges: e → e' iff end(e) → start(e'); simultaneous iff
  // neither. Edge k spans nodes k-1 → k; the final edge has no end node,
  // so it precedes nothing. Def 6.3: a shared variable both edges write
  // is a write/write race; else one that one reads and the other writes
  // is a read/write race.
  auto Before = [&](uint32_t PA, uint32_t KA, uint32_t PB, uint32_t KB) {
    return KA < Sync[PA].size() && Reaches(IdOf[PA][KA], IdOf[PB][KB - 1]);
  };
  auto Has = [](const std::vector<uint32_t> &Set, uint32_t S) {
    return std::binary_search(Set.begin(), Set.end(), S);
  };
  for (uint32_t PA = 0; PA != Sync.size(); ++PA)
    for (uint32_t KA = 1; KA != Edges[PA].size(); ++KA) {
      const EdgeAccesses &A = Edges[PA][KA];
      std::vector<uint32_t> Touched;
      std::set_union(A.Reads.begin(), A.Reads.end(), A.Writes.begin(),
                     A.Writes.end(), std::back_inserter(Touched));
      for (uint32_t PB = PA + 1; PB < Sync.size() && !Touched.empty(); ++PB)
        for (uint32_t KB = 1; KB != Edges[PB].size(); ++KB) {
          const EdgeAccesses &B = Edges[PB][KB];
          if ((B.Reads.empty() && B.Writes.empty()) ||
              Before(PA, KA, PB, KB) || Before(PB, KB, PA, KA))
            continue;
          for (uint32_t S : Touched) {
            RaceKind Kind;
            if (Has(A.Writes, S) && Has(B.Writes, S))
              Kind = RaceKind::WriteWrite;
            else if ((Has(A.Reads, S) && Has(B.Writes, S)) ||
                     (Has(A.Writes, S) && Has(B.Reads, S)))
              Kind = RaceKind::ReadWrite;
            else
              continue;
            Out.push_back({S, Prog.Symbols->SharedVars[S], {PA, KA},
                           {PB, KB}, Kind});
          }
        }
    }
  auto Key = [](const Race &R) {
    return std::make_tuple(R.SharedIdx, R.First.Pid, R.First.EndNode,
                           R.Second.Pid, R.Second.EndNode);
  };
  std::sort(Out.begin(), Out.end(),
            [&](const Race &A, const Race &B) { return Key(A) < Key(B); });
  return {};
}

/// The spec/race verdict: "" when \p Detected equals the races Defs
/// 6.1–6.4 give over \p Full element for element, else the first
/// difference or why the spec could not be evaluated.
std::string cmpRaceSpec(const CompiledProgram &Prog, const Observed &Full,
                        const std::vector<Race> &Detected) {
  std::vector<Race> Spec;
  if (auto D = specRaces(Prog, Full, Spec); !D.empty())
    return D;
  auto Describe = [](const Race &R) {
    return "s" + std::to_string(R.SharedIdx) + " p" +
           std::to_string(R.First.Pid) + "e" + std::to_string(R.First.EndNode) +
           "/p" + std::to_string(R.Second.Pid) + "e" +
           std::to_string(R.Second.EndNode) +
           (R.Kind == RaceKind::WriteWrite ? " WW" : " RW");
  };
  for (size_t I = 0; I != std::max(Spec.size(), Detected.size()); ++I) {
    if (I < Spec.size() && I < Detected.size() && Spec[I] == Detected[I])
      continue;
    return "race " + std::to_string(I) + ": detector " +
           (I < Detected.size() ? Describe(Detected[I]) : "none") +
           ", spec " + (I < Spec.size() ? Describe(Spec[I]) : "none") +
           " (detector " + std::to_string(Detected.size()) + " races, spec " +
           std::to_string(Spec.size()) + ")";
  }
  return {};
}

//===----------------------------------------------------------------------===//
// §5.5 splice: a process's interval replays, joined in log order, are the
// trace full tracing records.
//===----------------------------------------------------------------------===//

/// One event of a spliced trace. Wild marks the CallBegin of a nested
/// logged call that never returned: its interval's e-block names the
/// callee, but replay never reached a call site to supply the statement
/// or the arguments.
struct SplicedEvent {
  TraceEvent Event;
  bool Wild = false;
};

/// Expands one process's replays into the trace a FullTrace run records.
/// Replay shows a nested logged call as one CallSkipped event; the splice
/// puts CallBegin, the nested call's own intervals (recursively), and
/// CallEnd in its place.
class TraceSplicer {
public:
  /// \p Replays holds each interval's replay, by interval index.
  TraceSplicer(const CompiledProgram &Prog, uint32_t Pid,
               const std::vector<LogInterval> &Ivs,
               const std::vector<const ReplayResult *> &Replays)
      : Prog(Prog), Pid(Pid), Ivs(Ivs), Replays(Replays),
        Children(Ivs.size()) {
    for (const LogInterval &IV : Ivs)
      (IV.Parent == InvalidId ? Roots : Children[IV.Parent])
          .push_back(IV.Index);
  }

  /// The process's whole trace; "" or the reason it cannot be spliced.
  std::string splice(std::vector<SplicedEvent> &Result) {
    Out = &Result;
    spliceCall(Roots, 0);
    return Err;
  }

private:
  /// Splices one invocation: sibling intervals from Sibs[K] through the
  /// one that exits the function (or the last one that ran). Returns the
  /// position after it.
  size_t spliceCall(const std::vector<uint32_t> &Sibs, size_t K) {
    while (K < Sibs.size() && Err.empty()) {
      const LogInterval &IV = Ivs[Sibs[K++]];
      spliceInterval(IV);
      if (IV.ExitsFunction || IV.PostlogRecord == InvalidId)
        break;
    }
    return K;
  }

  void spliceInterval(const LogInterval &IV) {
    const ReplayResult *R = Replays[IV.Index];
    const std::vector<uint32_t> &Kids = Children[IV.Index];
    size_t K = 0;
    for (const TraceEvent &E : R->Events.Events) {
      if (E.Kind != TraceEventKind::CallSkipped) {
        Out->push_back({E});
        continue;
      }
      if (K == Kids.size() || Ivs[Kids[K]].PrelogRecord != E.LogCursor) {
        Err = "interval " + std::to_string(IV.Index) +
              ": skipped call at record " + std::to_string(E.LogCursor) +
              " has no nested interval there";
        return;
      }
      TraceEvent Begin;
      Begin.Kind = TraceEventKind::CallBegin;
      Begin.Pid = Pid;
      Begin.Stmt = E.Stmt;
      Begin.Callee = E.Callee;
      Begin.Args = E.Args;
      Out->push_back({std::move(Begin)});
      K = spliceCall(Kids, K);
      if (!Err.empty())
        return;
      TraceEvent End;
      End.Kind = TraceEventKind::CallEnd;
      End.Pid = Pid;
      End.Callee = E.Callee;
      End.Value = E.Value;
      Out->push_back({std::move(End)});
    }
    if (K == Kids.size())
      return;
    // The process stopped inside a nested logged call, so the replay
    // ended without a CallSkipped for it.
    if (!R->Partial) {
      Err = "interval " + std::to_string(IV.Index) + " completed without "
            "reaching nested interval " + std::to_string(Kids[K]);
      return;
    }
    TraceEvent Begin;
    Begin.Kind = TraceEventKind::CallBegin;
    Begin.Pid = Pid;
    Begin.Callee = Prog.eblock(Ivs[Kids[K]].EBlock).Func;
    Out->push_back({std::move(Begin), /*Wild=*/true});
    spliceCall(Kids, K);
  }

  const CompiledProgram &Prog;
  uint32_t Pid;
  const std::vector<LogInterval> &Ivs;
  const std::vector<const ReplayResult *> &Replays;
  std::vector<std::vector<uint32_t>> Children;
  std::vector<uint32_t> Roots;
  std::vector<SplicedEvent> *Out = nullptr;
  std::string Err;
};

/// True when \p A is a prefix of \p B.
template <typename Vec> bool isPrefix(const Vec &A, const Vec &B) {
  return A.size() <= B.size() && std::equal(A.begin(), A.end(), B.begin());
}

/// Compares a FullTrace event with a spliced one on everything the
/// program did — kind, statement, accesses and their values, predicate
/// outcome, callee, arguments, return value — but not on the event
/// number or the log cursor, which only replay assigns. \p Cut: the
/// machine froze its process inside this statement, which replay, knowing
/// only the statement, may have finished; the full trace's accesses then
/// need only be a prefix of the replayed ones.
std::string cmpSplicedEvent(const TraceEvent &Got, const SplicedEvent &Want,
                            bool Cut) {
  const TraceEvent &W = Want.Event;
  if (Got.Kind != W.Kind)
    return "kind " + std::to_string(int(Got.Kind)) + " vs " +
           std::to_string(int(W.Kind));
  if (Got.Pid != W.Pid)
    return "pid";
  if (!Want.Wild && Got.Stmt != W.Stmt)
    return "stmt s" + std::to_string(Got.Stmt) + " vs s" +
           std::to_string(W.Stmt);
  if (Got.Callee != W.Callee)
    return "callee";
  if (Got.Value != W.Value)
    return "value " + std::to_string(Got.Value) + " vs " +
           std::to_string(W.Value);
  if (!Want.Wild && !(Got.Args == W.Args))
    return "args";
  if (Cut ? !isPrefix(Got.Reads, W.Reads) : !(Got.Reads == W.Reads))
    return "reads";
  if (Cut ? !isPrefix(Got.Writes, W.Writes) : !(Got.Writes == W.Writes))
    return "writes";
  // A cut statement may have stopped between the jumps of a
  // short-circuit condition, each of which overwrites the outcome.
  if (Cut ? Got.IsPredicate && !W.IsPredicate
          : Got.IsPredicate != W.IsPredicate ||
                Got.BranchTaken != W.BranchTaken)
    return "predicate outcome";
  return {};
}

/// The §5.5 theorem for one execution instance: each process's FullTrace
/// trace equals its intervals' replay traces spliced in log order. For a
/// process the machine froze (deadlock, step limit, another process's
/// failure) the log ends in a record-free tail that replay follows only
/// up to the statement the process stopped in, so its splice need only
/// be a prefix, and that statement's event may run past the machine's.
std::string
cmpSplicedTraces(const CompiledProgram &Prog, const LogIndex &Index,
                 const std::vector<std::vector<const ReplayResult *>> &Replays,
                 const Observed &Full) {
  for (uint32_t P = 0; P != Index.numProcs(); ++P) {
    TraceSplicer Splicer(Prog, P, Index.intervals(P), Replays[P]);
    std::vector<SplicedEvent> Want;
    if (auto D = Splicer.splice(Want); !D.empty())
      return "pid " + std::to_string(P) + ": " + D;
    const std::vector<TraceEvent> &Got = Full.Traces[P].Events;
    auto Status = ProcStatus(Full.Statuses[P]);
    bool Frozen = Status != ProcStatus::Done && Status != ProcStatus::Failed;
    if (Frozen ? Got.size() < Want.size() : Got.size() != Want.size())
      return "pid " + std::to_string(P) + ": full trace has " +
             std::to_string(Got.size()) + " events, splice " +
             std::to_string(Want.size());
    for (size_t I = 0; I != Want.size(); ++I)
      if (auto D = cmpSplicedEvent(Got[I], Want[I],
                                   Frozen && I == Full.OpenEvents[P]);
          !D.empty())
        return "pid " + std::to_string(P) + " event " + std::to_string(I) +
               " (s" + std::to_string(Got[I].Stmt) + "): " + D + " differs";
  }
  return {};
}

std::atomic<uint64_t> TempCounter{0};

} // namespace

namespace ppd::testing {

std::string checkReplayTheorem(const CompiledProgram &Prog,
                               MachineOptions Opts) {
  Opts.Mode = RunMode::Logging;
  Observed Logged = runOnce(Prog, Opts);
  Opts.Mode = RunMode::FullTrace;
  Observed Full = runOnce(Prog, Opts);
  LogIndex Index(Logged.Log);
  ReplayEngine Engine(Prog);
  std::vector<ReplayResult> Results;
  std::vector<std::vector<const ReplayResult *>> Replays(Index.numProcs());
  for (uint32_t P = 0; P != Index.numProcs(); ++P)
    for (const LogInterval &IV : Index.intervals(P))
      Results.push_back(Engine.replay(Logged.Log, P, IV));
  const ReplayResult *Next = Results.data();
  for (uint32_t P = 0; P != Index.numProcs(); ++P)
    for (size_t I = 0; I != Index.intervals(P).size(); ++I)
      Replays[P].push_back(Next++);
  return cmpSplicedTraces(Prog, Index, Replays, Full);
}

std::string checkRaceSpec(const CompiledProgram &Prog, MachineOptions Opts,
                          std::vector<Race> &Races) {
  Opts.Mode = RunMode::Logging;
  Observed Logged = runOnce(Prog, Opts);
  Opts.Mode = RunMode::FullTrace;
  Observed Full = runOnce(Prog, Opts);
  ParallelDynamicGraph Graph(Logged.Log, Prog.Symbols->NumSharedVars);
  Races = RaceDetector(Graph, *Prog.Symbols).detect().Races;
  return cmpRaceSpec(Prog, Full, Races);
}

DiffReport runDifferential(const std::string &Source, uint64_t SchedSeed,
                           uint32_t Quantum, const DiffConfig &Config) {
  DiffReport Report;
  auto Fail = [&](std::string Oracle, std::string Detail) {
    Report.Divergent = true;
    Report.Oracle = std::move(Oracle);
    Report.Detail = std::move(Detail);
    return Report;
  };

  DiagnosticEngine Diags;
  auto Prog = Compiler::compile(Source, CompileOptions(), Diags);
  if (!Prog)
    return Fail("compile", Diags.str());

  const MachineOptions Base = baseOptions(SchedSeed, Quantum, Config);

  //===--- mode/*: instrumentation must not perturb execution ------------===//
  // Trace instructions cost no quantum, so all three modes preempt at the
  // same points: identical interleavings, step counts, and everything the
  // program computes, for every program.
  const RunMode Modes[3] = {RunMode::Plain, RunMode::Logging,
                            RunMode::FullTrace};
  Observed Runs[3];
  for (int M = 0; M != 3; ++M) {
    MachineOptions Opts = Base;
    Opts.Mode = Modes[M];
    Runs[M] = runOnce(*Prog, Opts);
  }
  if (auto D = cmpRunPair(Runs[0], Runs[1], /*CompareSteps=*/true);
      !D.empty())
    return Fail("mode/plain-vs-logging", D);
  const Observed &Ref = Runs[1]; // the Logging run.
  const Observed &Full = Runs[2];
  const ExecutionLog &L = Ref.Log;
  if (auto D = cmpRunPair(Ref, Full, /*CompareSteps=*/true); !D.empty())
    return Fail("mode/logging-vs-fulltrace", D);

  Report.Outcome = int(Ref.Result.Outcome);
  Report.Steps = Ref.Result.Steps;

  //===--- log/*: save → load → re-save round trip -----------------------===//
  {
    std::string Path = Config.TempDir + "/ppd_fuzz_" +
                       std::to_string(uint64_t(::getpid())) + "_" +
                       std::to_string(TempCounter.fetch_add(1)) + ".ppdlog";
    std::string Err, ErrOracle;
    std::vector<uint8_t> First, Second;
    ExecutionLog Loaded;
    if (!L.save(Path)) {
      ErrOracle = "save";
      Err = "save failed";
    } else if (!readFileBytes(Path, First)) {
      ErrOracle = "save";
      Err = "saved file unreadable";
    } else if (!ExecutionLog::load(Path, Loaded)) {
      ErrOracle = "load";
      Err = "load failed on a fresh save";
    } else if (auto D = cmpLogs(L, Loaded); !D.empty()) {
      ErrOracle = "load";
      Err = D;
    } else if (!Loaded.save(Path) || !readFileBytes(Path, Second)) {
      ErrOracle = "resave";
      Err = "re-save failed";
    } else if (First != Second) {
      ErrOracle = "resave";
      Err = "re-saved bytes differ (size " + std::to_string(First.size()) +
            " vs " + std::to_string(Second.size()) + ")";
    } else {
      // The loaded log must index identically.
      LogIndex IA(L), IB(Loaded);
      for (uint32_t P = 0; Err.empty() && P != L.Procs.size(); ++P) {
        const auto &VA = IA.intervals(P), &VB = IB.intervals(P);
        if (VA.size() != VB.size()) {
          ErrOracle = "index";
          Err = "pid " + std::to_string(P) + " interval count differs";
          break;
        }
        for (size_t I = 0; I != VA.size(); ++I)
          if (VA[I].Index != VB[I].Index || VA[I].EBlock != VB[I].EBlock ||
              VA[I].PrelogRecord != VB[I].PrelogRecord ||
              VA[I].PostlogRecord != VB[I].PostlogRecord ||
              VA[I].Parent != VB[I].Parent || VA[I].Depth != VB[I].Depth ||
              VA[I].ExitsFunction != VB[I].ExitsFunction) {
            ErrOracle = "index";
            Err = "pid " + std::to_string(P) + " interval " +
                  std::to_string(I) + " differs";
            break;
          }
      }
    }
    std::remove(Path.c_str());
    if (!Err.empty())
      return Fail("log/" + ErrOracle, Err);
  }

  //===--- spec/race: the detector against Defs 6.1–6.4 ------------------===//
  // The detector reads the Logging run's graph; the spec reads what the
  // FullTrace run did. Both runs interleave identically (mode/*), so their
  // sync records, and with them the edges, coincide.
  ParallelDynamicGraph PDG(L, Prog->Symbols->NumSharedVars);
  RaceDetectionResult Detected = RaceDetector(PDG, *Prog->Symbols).detect();
  // The spec's closure is quadratic in the sync nodes: generated programs
  // stay far below this bound, which guards against pathological inputs.
  size_t SyncNodes = 0;
  for (const ProcessLog &P : Full.Log.Procs)
    for (const LogRecord &R : P.Records)
      SyncNodes += R.Kind == LogRecordKind::SyncEvent;
  if (SyncNodes <= 8000)
    if (auto D = cmpRaceSpec(*Prog, Full, Detected.Races); !D.empty())
      return Fail("spec/race", D);
  Report.RaceFree = Detected.raceFree();
  Report.Races = unsigned(Detected.Races.size());

  //===--- replay/*: the engine, the memoized service, its cache ---------===//
  LogIndex Index(L);
  std::vector<std::pair<uint32_t, uint32_t>> Refs;
  for (uint32_t P = 0; P != L.Procs.size(); ++P)
    for (const LogInterval &IV : Index.intervals(P))
      Refs.push_back({P, IV.Index});
  Report.Intervals = unsigned(Refs.size());
  // Bound the quadratic-ish replay matrix on degenerate inputs; generated
  // programs sit far below this.
  if (Refs.size() > 2000)
    Refs.resize(2000);

  ReplayEngine Engine(*Prog);
  std::vector<ReplayResult> Reference;
  Reference.reserve(Refs.size());
  for (const auto &[P, IVIdx] : Refs) {
    const LogInterval &IV = Index.intervals(P)[IVIdx];
    ReplayResult RD = Engine.replay(L, P, IV);
    // §5.5: on a race-free instance every closed interval replays
    // faithfully and verifies its postlog exactly.
    if (Report.RaceFree && IV.PostlogRecord != InvalidId) {
      if (!RD.Ok || RD.Partial || !RD.PostlogMismatches.empty() ||
          RD.Diverged)
        return Fail("replay/verify",
                    "pid " + std::to_string(P) + " interval " +
                        std::to_string(IVIdx) + ": ok=" +
                        std::to_string(RD.Ok) + " partial=" +
                        std::to_string(RD.Partial) + " mismatches=" +
                        std::to_string(RD.PostlogMismatches.size()) +
                        (RD.Error.empty() ? "" : " error=" + RD.Error));
    }
    Reference.push_back(std::move(RD));
  }

  //===--- spec/trace: the §5.5 theorem against a FullTrace run ----------===//
  // Refs lists every interval of every process in order, unless the
  // bound above cut it short.
  if (Report.RaceFree && Refs.size() == Report.Intervals) {
    std::vector<std::vector<const ReplayResult *>> Replays(L.Procs.size());
    for (size_t I = 0; I != Refs.size(); ++I)
      Replays[Refs[I].first].push_back(&Reference[I]);
    if (auto D = cmpSplicedTraces(*Prog, Index, Replays, Full); !D.empty())
      return Fail("spec/trace", D);
  }

  // The run's log as an in-memory store, for replay/* and paged/*.
  PagedLog Mem = PagedLog::fromLog(L);
  {
    ReplayService Service(*Prog, Mem, Index);
    for (size_t I = 0; I != Refs.size(); ++I) {
      auto R = Service.get(Refs[I].first, Refs[I].second);
      if (!R)
        return Fail("replay/service", "get returned null");
      if (auto D = cmpReplay(*R, Reference[I]); !D.empty())
        return Fail("replay/service",
                    "pid " + std::to_string(Refs[I].first) + " interval " +
                        std::to_string(Refs[I].second) + ": " + D);
      auto Again = Service.get(Refs[I].first, Refs[I].second);
      if (!Again || !(cmpReplay(*Again, Reference[I]).empty()))
        return Fail("replay/cache", "cached re-read differs from original");
    }
  }

  //===--- paged/*: file and in-memory stores vs the run's records ------===//
  // Save the log as v2, re-open it as a file store, and demand (a) the
  // skim-built index equals the one derived from the run's records, (b)
  // every section either store decodes equals the run's own, and (c) a
  // flowback session over the file store answers exactly like one over
  // the in-memory store. The file store's pool budget is randomized from
  // the seed, from one byte (every fault evicts) up to comfortable:
  // eviction churn must never change an answer.
  if (Config.CheckPaged) {
    std::string Path = Config.TempDir + "/ppd_fuzz_" +
                       std::to_string(uint64_t(::getpid())) + "_" +
                       std::to_string(TempCounter.fetch_add(1)) +
                       ".paged.ppdlog";
    if (!L.save(Path, LogFormat::V2)) {
      std::remove(Path.c_str());
      return Fail("paged/save", "v2 save failed");
    }
    std::string OpenErr;
    std::shared_ptr<const PageStore> Store = PageStore::open(Path, &OpenErr);
    if (!Store) {
      std::remove(Path.c_str());
      return Fail("paged/open", OpenErr);
    }

    std::string PagedErr;
    LogIndex Skim(*Store);
    for (uint32_t P = 0; PagedErr.empty() && P != L.Procs.size(); ++P) {
      const auto &VA = Index.intervals(P), &VB = Skim.intervals(P);
      if (VA.size() != VB.size() ||
          Index.openIntervals(P) != Skim.openIntervals(P)) {
        PagedErr = "pid " + std::to_string(P) + " skim index differs";
        break;
      }
      for (size_t I = 0; I != VA.size(); ++I)
        if (VA[I].Index != VB[I].Index || VA[I].EBlock != VB[I].EBlock ||
            VA[I].PrelogRecord != VB[I].PrelogRecord ||
            VA[I].PostlogRecord != VB[I].PostlogRecord ||
            VA[I].Parent != VB[I].Parent || VA[I].Depth != VB[I].Depth ||
            VA[I].ExitsFunction != VB[I].ExitsFunction) {
          PagedErr = "pid " + std::to_string(P) + " skim interval " +
                     std::to_string(I) + " differs";
          break;
        }
    }
    if (!PagedErr.empty()) {
      std::remove(Path.c_str());
      return Fail("paged/index", PagedErr);
    }

    for (const PageStore *S : {Store.get(), Mem.Store.get()}) {
      ExecutionLog Decoded;
      Decoded.Procs.resize(S->numProcs());
      for (uint32_t P = 0; PagedErr.empty() && P != S->numProcs(); ++P)
        if (!S->decodeSection(P, Decoded.Procs[P]))
          PagedErr = S->failure();
      Decoded.Output = S->output();
      if (PagedErr.empty())
        PagedErr = cmpLogs(L, Decoded);
      if (!PagedErr.empty()) {
        std::remove(Path.c_str());
        return Fail("paged/decode",
                    (S == Store.get() ? "file: " : "in-memory: ") + PagedErr);
      }
    }

    size_t Budget = size_t(1) << (SchedSeed % 17);
    auto Pool = std::make_shared<BufferPool>(Budget);
    PpdController MemCtl(*Prog, Mem);
    DebugSession MemSession(*Prog, MemCtl);
    PpdController PagedCtl(*Prog, PagedLog{Store, Pool});
    DebugSession PagedSession(*Prog, PagedCtl);
    uint32_t FocusPid = Ref.Result.Outcome == RunResult::Status::Failed
                            ? Ref.Result.Error.Pid
                            : 0;
    std::string WhereCmd = "where " + std::to_string(FocusPid);
    const char *Script[] = {WhereCmd.c_str(), "back",   "back", "fwd",
                            "races",          "node 1", WhereCmd.c_str()};
    for (const char *Cmd : Script) {
      std::string Mem = MemSession.execute(Cmd);
      std::string Paged = PagedSession.execute(Cmd);
      if (Mem != Paged) {
        std::remove(Path.c_str());
        return Fail("paged/session",
                    std::string("command '") + Cmd + "' differs (budget " +
                        std::to_string(Budget) + "):\n--- in-memory ---\n" +
                        Mem + "\n--- file ---\n" + Paged);
      }
    }
    std::remove(Path.c_str());
  }

  //===--- deadlock/*: report coherence on Deadlock outcomes -------------===//
  if (Ref.Result.Outcome == RunResult::Status::Deadlock) {
    DeadlockAnalyzer Analyzer(*Prog, L);
    DeadlockReport DR = Analyzer.analyze(Ref.Result.Deadlock);
    if (DR.Waits.size() != Ref.Result.Deadlock.Blocked.size())
      return Fail("deadlock/report",
                  "analyzer reports " + std::to_string(DR.Waits.size()) +
                      " waits for " +
                      std::to_string(Ref.Result.Deadlock.Blocked.size()) +
                      " blocked processes");
    for (uint32_t Pid : DR.Cycle) {
      bool Blocked = false;
      for (const auto &W : Ref.Result.Deadlock.Blocked)
        Blocked |= W.Pid == Pid;
      if (!Blocked)
        return Fail("deadlock/report", "cycle names non-blocked pid " +
                                           std::to_string(Pid));
    }
  }

  //===--- server/*: DebugSession vs framed DebugServer ------------------===//
  // Two more deterministic re-runs supply each side its own log; their
  // equality with the reference log is itself the determinism oracle.
  if (Config.CheckServer) {
    auto RerunLog = [&](std::string &Err) {
      MachineOptions Opts = Base;
      Opts.Mode = RunMode::Logging;
      Machine M(*Prog, Opts);
      M.run();
      ExecutionLog Lg = M.takeLog();
      Err = cmpLogs(L, Lg);
      return Lg;
    };
    std::string Err1, Err2;
    ExecutionLog DirectLog = RerunLog(Err1);
    ExecutionLog ServerLog = RerunLog(Err2);
    if (!Err1.empty() || !Err2.empty())
      return Fail("server/determinism",
                  "re-run log differs: " + (Err1.empty() ? Err2 : Err1));

    DiagnosticEngine SrvDiags;
    auto SrvProg = Compiler::compile(Source, CompileOptions(), SrvDiags);
    if (!SrvProg)
      return Fail("compile", "recompile failed: " + SrvDiags.str());

    PpdController Controller(*Prog, std::move(DirectLog));
    DebugSession Session(*Prog, Controller);

    DebugServer Server;
    uint32_t ProgIdx = Server.addProgram(std::move(SrvProg),
                                         std::move(ServerLog));
    auto Roundtrip = [&](const Request &Req, Response &Resp) {
      LogWriter W;
      encodeRequest(Req, W);
      std::vector<uint8_t> Frame =
          Server.handleFrame(W.data() + 4, W.size() - 4);
      if (Frame.size() < 4)
        return false;
      return decodeResponse(Frame.data() + 4, Frame.size() - 4, Resp);
    };

    Request Open;
    Open.Type = MsgType::OpenSession;
    Open.RequestId = 1;
    Open.ProgramIndex = ProgIdx;
    Response Opened;
    if (!Roundtrip(Open, Opened) || Opened.Type != RespType::SessionOpened)
      return Fail("server/open", "OpenSession did not yield a session");

    // The script mixes Query, Step, and Races frames; "stats" is excluded
    // by design (cache counters legitimately differ between the sides).
    struct Cmd {
      MsgType Type;
      const char *Text;    ///< Query command / DebugSession line.
      uint8_t Direction;   ///< Step only.
    };
    uint32_t FailPid =
        Ref.Result.Outcome == RunResult::Status::Failed
            ? Ref.Result.Error.Pid
            : 0;
    std::string WhereCmd = "where " + std::to_string(FailPid);
    const Cmd Script[] = {
        {MsgType::Query, WhereCmd.c_str(), 0},
        {MsgType::Step, "back", 0},
        {MsgType::Step, "back", 0},
        {MsgType::Step, "fwd", 1},
        {MsgType::Races, "races", 0},
        {MsgType::Query, "node 1", 0},
        {MsgType::Query, "list", 0},
    };
    uint64_t RequestId = 2;
    for (const Cmd &C : Script) {
      std::string Direct = Session.execute(C.Text);
      Request Req;
      Req.Type = C.Type;
      Req.RequestId = RequestId++;
      Req.SessionId = Opened.SessionId;
      Req.Direction = C.Direction;
      if (C.Type == MsgType::Query)
        Req.Command = C.Text;
      Response Resp;
      if (!Roundtrip(Req, Resp) || Resp.Type != RespType::Result)
        return Fail("server/frame", std::string("command '") + C.Text +
                                        "' did not yield a Result frame");
      if (Resp.Text != Direct)
        return Fail("server/responses",
                    std::string("command '") + C.Text +
                        "' differs:\n--- session ---\n" + Direct +
                        "\n--- server ---\n" + Resp.Text);
    }
    Request Close;
    Close.Type = MsgType::CloseSession;
    Close.RequestId = RequestId;
    Close.SessionId = Opened.SessionId;
    Response Closed;
    if (!Roundtrip(Close, Closed) || Closed.Type != RespType::Closed)
      return Fail("server/close", "CloseSession did not acknowledge");
  }

  //===--- stream/*: live-attach ingest vs the batch pipeline ------------===//
  // Re-run the program with a StreamSealer hooked into scheduler rounds —
  // cuts must be sealed DURING execution to be consistent — and feed the
  // frames straight into an in-process IngestRegistry. The section
  // threshold is seed-randomized down to a single record so cut
  // boundaries land everywhere, including one-record sections. At
  // sampled frontiers a tail query must answer exactly like a batch
  // controller over a copy of the same prefix (the incremental
  // append-equals-rebuild invariant); at the end the frontier must equal
  // the batch log field-by-field and byte-for-byte as v2.
  if (Config.CheckStream) {
    DiagnosticEngine SrvDiags;
    auto SrvProg = Compiler::compile(Source, CompileOptions(), SrvDiags);
    if (!SrvProg)
      return Fail("compile", "recompile failed: " + SrvDiags.str());
    DebugServer Server;
    uint32_t ProgIdx = Server.addProgram(std::move(SrvProg), ExecutionLog());
    stream::IngestRegistry Ingest(Server, stream::IngestOptions());

    stream::SealerOptions SOpts;
    SOpts.ProgramIndex = ProgIdx;
    SOpts.ProgramHash = programHash(*Prog);
    SOpts.SectionRecords = 1 + uint32_t(SchedSeed % 9);
    stream::StreamSealer Sealer(SOpts);

    Response Hello = Ingest.dispatch(Sealer.helloFrame());
    if (Hello.Type != RespType::Ack)
      return Fail("stream/hello", "StreamHello rejected: " + Hello.Text);
    Sealer.setStreamId(Hello.StreamId);
    const uint64_t Sid = Hello.StreamId;

    std::string StreamErr;
    auto ShipAll = [&](std::vector<Request> Frames) {
      for (Request &F : Frames) {
        Response R = Ingest.dispatch(F);
        if (R.Type != RespType::Ack) {
          StreamErr = "SectionData rejected (cut " +
                      std::to_string(F.CutSeq) + "): " + R.Text;
          return;
        }
      }
    };

    // Sampled prefix checks: after some applied cuts, the ingest
    // snapshot and a batch controller over the same prefix run a short
    // flowback script and must agree verbatim.
    unsigned PrefixChecks = 0;
    uint64_t CheckedVersion = 0;
    auto CheckPrefix = [&]() {
      if (PrefixChecks >= 4 || !StreamErr.empty())
        return;
      uint64_t Version = Ingest.frontierVersion(Sid);
      if (Version == CheckedVersion ||
          (Version % 3) != (SchedSeed % 3)) // seed-skewed sampling
        return;
      CheckedVersion = Version;
      ++PrefixChecks;
      ExecutionLog Prefix;
      if (!Ingest.frontierLog(Sid, Prefix) || Prefix.Procs.empty())
        return;
      PpdController BatchCtl(*Prog, ExecutionLog(Prefix));
      DebugSession BatchSess(*Prog, BatchCtl);
      for (const char *Cmd : {"where 0", "back", "races"}) {
        Request Tail;
        Tail.Type = MsgType::TailQuery;
        Tail.StreamId = Sid;
        Tail.Command = Cmd;
        Response R = Ingest.dispatch(Tail);
        std::string Batch = BatchSess.execute(Cmd);
        if (R.Type != RespType::Result) {
          StreamErr = std::string("tail '") + Cmd +
                      "' did not yield a Result: " + R.Text;
          return;
        }
        if (R.Text != Batch) {
          StreamErr = std::string("prefix (version ") +
                      std::to_string(Version) + ") tail '" + Cmd +
                      "' differs:\n--- batch ---\n" + Batch +
                      "\n--- tail ---\n" + R.Text;
          return;
        }
      }
    };

    MachineOptions Opts = Base;
    Opts.Mode = RunMode::Logging;
    Machine M(*Prog, Opts);
    M.onRound([&](Machine &Mach) {
      if (!StreamErr.empty())
        return;
      ShipAll(Sealer.sealRound(Mach.log(), /*Force=*/false));
      CheckPrefix();
    });
    M.run();
    if (!StreamErr.empty())
      return Fail("stream/ingest", StreamErr);
    ShipAll(Sealer.sealRound(M.log(), /*Force=*/true));
    if (!StreamErr.empty())
      return Fail("stream/ingest", StreamErr);
    {
      std::string RerunErr = cmpLogs(L, M.log());
      if (!RerunErr.empty())
        return Fail("stream/determinism", "re-run log differs: " + RerunErr);
      Response EndResp = Ingest.dispatch(Sealer.endFrame(M.log()));
      if (EndResp.Type != RespType::Ack)
        return Fail("stream/end", "StreamEnd rejected: " + EndResp.Text);
    }

    ExecutionLog Frontier;
    if (!Ingest.frontierLog(Sid, Frontier))
      return Fail("stream/final", "frontier log unavailable after end");
    if (auto D = cmpLogs(L, Frontier); !D.empty())
      return Fail("stream/final-log", D);
    {
      // Byte identity: the streamed accumulation must serialize to the
      // exact v2 file a batch save produces.
      std::string PathA = Config.TempDir + "/ppd_fuzz_" +
                          std::to_string(uint64_t(::getpid())) + "_" +
                          std::to_string(TempCounter.fetch_add(1)) +
                          ".stream.ppdlog";
      std::string PathB = PathA + ".batch";
      std::vector<uint8_t> BytesA, BytesB;
      bool Ok = Frontier.save(PathA, LogFormat::V2) &&
                L.save(PathB, LogFormat::V2) &&
                readFileBytes(PathA, BytesA) && readFileBytes(PathB, BytesB);
      std::remove(PathA.c_str());
      std::remove(PathB.c_str());
      if (!Ok)
        return Fail("stream/v2-bytes", "save or read-back failed");
      if (BytesA != BytesB)
        return Fail("stream/v2-bytes",
                    "streamed v2 bytes differ from batch (size " +
                        std::to_string(BytesA.size()) + " vs " +
                        std::to_string(BytesB.size()) + ")");
    }
    // Final-frontier script vs a fresh batch session over the reference
    // log: the adopted incremental index/graph answer like rebuilt ones,
    // races included.
    {
      PpdController BatchCtl(*Prog, ExecutionLog(L));
      DebugSession BatchSess(*Prog, BatchCtl);
      uint32_t FocusPid = Ref.Result.Outcome == RunResult::Status::Failed
                              ? Ref.Result.Error.Pid
                              : 0;
      std::string WhereCmd = "where " + std::to_string(FocusPid);
      const char *Script[] = {WhereCmd.c_str(), "back", "fwd", "races"};
      for (const char *Cmd : Script) {
        Request Tail;
        Tail.Type = MsgType::TailQuery;
        Tail.StreamId = Sid;
        Tail.Command = Cmd;
        Response R = Ingest.dispatch(Tail);
        std::string Batch = BatchSess.execute(Cmd);
        if (R.Type != RespType::Result || R.Text != Batch)
          return Fail("stream/tail", std::string("final tail '") + Cmd +
                                         "' differs:\n--- batch ---\n" +
                                         Batch + "\n--- tail ---\n" + R.Text);
      }
    }
  }

  //===--- flowback/*: dependence edges vs semantic ground truth ---------===//
  // Every read in every traced interval must have a data in-edge for its
  // variable, and when every candidate source is a singular writer whose
  // written value is determinable, at least one must have written the
  // value actually read. This checks the *meaning* of the graph, not a
  // re-execution of the builder's algorithm — a stale intra-interval
  // writer carried across a synchronization boundary fails here even
  // though the builder's own logic would reproduce it.
  if (Config.CheckFlowback && Report.RaceFree &&
      Ref.Result.Outcome == RunResult::Status::Completed) {
    MachineOptions Opts = Base;
    Opts.Mode = RunMode::Logging;
    Machine M(*Prog, Opts);
    M.run();
    PpdController Controller(*Prog, M.takeLog());

    std::vector<std::pair<std::pair<uint32_t, uint32_t>, BuiltFragment>>
        Fragments;
    for (const auto &RefIv : Refs) {
      const BuiltFragment *F =
          Controller.ensureInterval(RefIv.first, RefIv.second);
      if (!F)
        return Fail("flowback/trace",
                    "pid " + std::to_string(RefIv.first) + " interval " +
                        std::to_string(RefIv.second) +
                        " failed to trace on a race-free run");
      Fragments.push_back({RefIv, *F});
    }
    Controller.resolveAllCrossReads();

    const DynamicGraph &Graph = Controller.graph();
    for (const auto &[IvRef, Frag] : Fragments) {
      const ReplayResult *Replay =
          Controller.replayOf(IvRef.first, IvRef.second);
      if (!Replay)
        return Fail("flowback/trace", "traced interval has no replay");
      const auto &Events = Replay->Events.Events;
      if (Frag.EventNodes.size() != Events.size())
        return Fail("flowback/nodes",
                    "fragment maps " +
                        std::to_string(Frag.EventNodes.size()) +
                        " nodes for " + std::to_string(Events.size()) +
                        " events");
      for (size_t EI = 0; EI != Events.size(); ++EI) {
        const TraceEvent &E = Events[EI];
        if (E.Kind != TraceEventKind::Stmt)
          continue;
        DynNodeId Reader = Frag.EventNodes[EI];
        DynamicGraph::EdgeRange In = Graph.inEdges(Reader);
        for (const TraceAccess &R : E.Reads) {
          bool Satisfied = false, Soft = false;
          unsigned Candidates = 0;
          std::string Mismatch;
          for (const DynEdge &Edge : In) {
            if (Edge.Var != R.Var || (Edge.Kind != DynEdgeKind::Data &&
                                      Edge.Kind != DynEdgeKind::CrossData))
              continue;
            const DynNode &Src = Graph.node(Edge.From);
            if (Src.Kind != DynNodeKind::Singular) {
              // Entry / Initial / Param / unexpanded sub-graph: the value
              // is not attributable to one write; accept.
              ++Candidates;
              Soft = true;
              continue;
            }
            const ReplayResult *SrcReplay =
                Controller.replayOf(Src.Pid, Src.Interval);
            if (!SrcReplay || Src.Event >= SrcReplay->Events.Events.size())
              return Fail("flowback/nodes",
                          "edge source points at an untraced event");
            const TraceEvent &WE = SrcReplay->Events.Events[Src.Event];
            // Edges carry the variable but not the element index, so a
            // statement that reads several elements of one array sees its
            // siblings' edges too. A source that writes the variable only
            // at other concrete indices is such a sibling edge: skip it.
            // A source that never writes the variable at all is a wiring
            // bug in the builder.
            bool WroteVar = false, WroteElem = false;
            for (const TraceAccess &W : WE.Writes) {
              if (W.Var != R.Var)
                continue;
              WroteVar = true;
              if (W.Index != R.Index && W.Index != -1 && R.Index != -1)
                continue;
              WroteElem = true;
              if (W.Value == R.Value)
                Satisfied = true;
              else
                Mismatch = "writer s" + std::to_string(WE.Stmt) +
                           " wrote " + std::to_string(W.Value) +
                           ", read saw " + std::to_string(R.Value);
            }
            if (!WroteVar)
              return Fail(
                  "flowback/edges",
                  "data edge from a node that never writes the variable "
                  "(reader s" +
                      std::to_string(E.Stmt) + ", writer s" +
                      std::to_string(WE.Stmt) + ")");
            if (WroteElem)
              ++Candidates;
          }
          if (Candidates == 0) {
            const VarInfo &Info = Prog->Symbols->var(R.Var);
            return Fail("flowback/missing-edge",
                        "read of '" + Info.Name + "' at s" +
                            std::to_string(E.Stmt) + " (pid " +
                            std::to_string(IvRef.first) + " interval " +
                            std::to_string(IvRef.second) +
                            ") has no data in-edge");
          }
          if (!Satisfied && !Soft)
            return Fail("flowback/value",
                        "read of '" + Prog->Symbols->var(R.Var).Name +
                            "' at s" + std::to_string(E.Stmt) + " (pid " +
                            std::to_string(IvRef.first) + " interval " +
                            std::to_string(IvRef.second) + "): " + Mismatch);
        }
      }
    }

    // flowback/sync: synchronization edges against the log's own
    // Seq/PartnerSeq records, not the parallel dynamic graph. A sync
    // record is anchored at the last event of its enclosing traced
    // interval that ran the record's statement at or before it. Every
    // Sync edge must join the anchors of one (partner, dependent) pair,
    // and every pair with both anchors traced must be joined.
    std::map<uint64_t, std::pair<uint32_t, uint32_t>> SyncAt; // pid, record
    for (uint32_t P = 0; P != L.Procs.size(); ++P)
      for (uint32_t I = 0; I != L.Procs[P].Records.size(); ++I)
        if (L.Procs[P].Records[I].Kind == LogRecordKind::SyncEvent)
          SyncAt[L.Procs[P].Records[I].Seq] = {P, I};
    auto Anchor = [&](std::pair<uint32_t, uint32_t> At) -> DynNodeId {
      const LogInterval *IV = Controller.logIndex().enclosing(At.first,
                                                              At.second);
      const ReplayResult *Replay =
          IV ? Controller.replayOf(At.first, IV->Index) : nullptr;
      if (!Replay)
        return InvalidId;
      StmtId Stmt = L.Procs[At.first].Records[At.second].Stmt;
      DynNodeId Best = InvalidId;
      for (const TraceEvent &E : Replay->Events.Events)
        if (E.Stmt == Stmt && E.LogCursor <= At.second)
          Best = Graph.nodeOfEvent(At.first, IV->Index, E.Index);
      return Best;
    };
    std::set<std::pair<DynNodeId, DynNodeId>> Pairs, Edges;
    for (const auto &[Seq, At] : SyncAt) {
      uint64_t Partner = L.Procs[At.first].Records[At.second].PartnerSeq;
      if (Partner == NoPartner)
        continue;
      auto It = SyncAt.find(Partner);
      if (It == SyncAt.end())
        return Fail("flowback/sync", "seq " + std::to_string(Seq) +
                                         " names a missing partner");
      DynNodeId From = Anchor(It->second), To = Anchor(At);
      if (From != InvalidId && To != InvalidId)
        Pairs.insert({From, To});
    }
    for (const DynEdge &E : Graph.edges()) {
      if (E.Kind != DynEdgeKind::Sync)
        continue;
      if (!Pairs.count({E.From, E.To}))
        return Fail("flowback/sync",
                    "sync edge n" + std::to_string(E.From) + " -> n" +
                        std::to_string(E.To) +
                        " joins no partner pair of the log");
      Edges.insert({E.From, E.To});
    }
    for (const auto &[From, To] : Pairs)
      if (!Edges.count({From, To}))
        return Fail("flowback/sync",
                    "partner pair n" + std::to_string(From) + " -> n" +
                        std::to_string(To) +
                        " has both ends traced but no sync edge");
  }

  return Report;
}

} // namespace ppd::testing
