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
// Independent race recheck: happens-before as explicit BFS-free transitive
// closure over (intra-process, partner) edges read straight from the raw
// log — sharing no code with ParallelDynamicGraph's vector clocks.
//===----------------------------------------------------------------------===//

using RaceTuple =
    std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t, uint8_t>;

RaceTuple tupleOf(const Race &R) {
  return {R.SharedIdx, R.First.Pid, R.First.EndNode, R.Second.Pid,
          R.Second.EndNode, uint8_t(R.Kind)};
}

/// Returns false (with \p Err set) only on an internal inconsistency in
/// the log (dangling partner); otherwise fills \p Out with the race set.
bool recheckRaces(const ExecutionLog &Log, unsigned NumShared,
                  std::vector<RaceTuple> &Out, std::string &Err) {
  struct RNode {
    uint64_t Seq = 0;
    uint64_t Partner = NoPartner;
    std::vector<uint32_t> Reads, Writes; ///< of the edge ending here.
  };
  std::vector<std::vector<RNode>> Sync(Log.Procs.size());
  size_t Total = 0;
  uint64_t MaxSeq = 0;
  for (size_t P = 0; P != Log.Procs.size(); ++P) {
    for (const LogRecord &R : Log.Procs[P].Records) {
      if (R.Kind != LogRecordKind::SyncEvent)
        continue;
      RNode N;
      N.Seq = R.Seq;
      N.Partner = R.PartnerSeq;
      N.Reads.assign(R.ReadSet.begin(), R.ReadSet.end());
      N.Writes.assign(R.WriteSet.begin(), R.WriteSet.end());
      MaxSeq = std::max(MaxSeq, R.Seq);
      Sync[P].push_back(std::move(N));
      ++Total;
    }
  }
  // Word-packed transitive closure, filled in global Seq order (every
  // edge — intra-process successor and partner→node — raises Seq, so Seq
  // order is topological). Generated programs stay far below this bound;
  // it guards the quadratic bitset against pathological inputs.
  if (Total > 8000) {
    Err = "recheck skipped: " + std::to_string(Total) + " sync nodes";
    return false;
  }
  std::vector<std::pair<uint32_t, uint32_t>> BySeq(size_t(MaxSeq) + 1,
                                                   {InvalidId, InvalidId});
  std::vector<std::vector<uint32_t>> IdOf(Sync.size());
  uint32_t Next = 0;
  for (uint32_t P = 0; P != Sync.size(); ++P)
    for (uint32_t K = 0; K != Sync[P].size(); ++K) {
      if (Sync[P][K].Seq >= BySeq.size())
        BySeq.resize(Sync[P][K].Seq + 1, {InvalidId, InvalidId});
      BySeq[Sync[P][K].Seq] = {P, K};
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
    uint64_t Partner = Sync[P][K].Partner;
    if (Partner != NoPartner) {
      if (Partner >= BySeq.size() || BySeq[Partner].first == InvalidId) {
        Err = "dangling partner seq " + std::to_string(Partner);
        return false;
      }
      auto [PP, PK] = BySeq[Partner];
      Merge(Row, IdOf[PP][PK]);
    }
  }
  auto Before = [&](uint32_t A, uint32_t B) { // A happens-before B
    return (RowOf(B)[A / 64] >> (A % 64)) & 1;
  };

  // Def 6.1 over edges: e → e' iff end(e) → start(e'); simultaneous iff
  // neither. Edge k of process P spans nodes k-1 → k; its sets live on
  // node k's record. Classification mirrors Def 6.3: write/write wins,
  // read/write reported once per (pair, variable).
  auto Contains = [](const std::vector<uint32_t> &V, uint32_t S) {
    return std::find(V.begin(), V.end(), S) != V.end();
  };
  for (uint32_t PA = 0; PA != Sync.size(); ++PA) {
    for (uint32_t PB = PA + 1; PB != Sync.size(); ++PB) {
      for (uint32_t KA = 1; KA < Sync[PA].size(); ++KA) {
        for (uint32_t KB = 1; KB < Sync[PB].size(); ++KB) {
          const RNode &A = Sync[PA][KA], &B = Sync[PB][KB];
          if (A.Reads.empty() && A.Writes.empty())
            continue;
          if (B.Reads.empty() && B.Writes.empty())
            continue;
          bool AThenB = Before(IdOf[PA][KA], IdOf[PB][KB - 1]) ||
                        IdOf[PA][KA] == IdOf[PB][KB - 1];
          bool BThenA = Before(IdOf[PB][KB], IdOf[PA][KA - 1]) ||
                        IdOf[PB][KB] == IdOf[PA][KA - 1];
          if (AThenB || BThenA)
            continue; // ordered, not simultaneous.
          for (uint32_t S = 0; S != NumShared; ++S) {
            bool WW = Contains(A.Writes, S) && Contains(B.Writes, S);
            bool RW = !WW && ((Contains(A.Reads, S) && Contains(B.Writes, S)) ||
                              (Contains(A.Writes, S) && Contains(B.Reads, S)));
            if (WW)
              Out.push_back({S, PA, KA, PB, KB, uint8_t(RaceKind::WriteWrite)});
            else if (RW)
              Out.push_back({S, PA, KA, PB, KB, uint8_t(RaceKind::ReadWrite)});
          }
        }
      }
    }
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return true;
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

  //===--- race/*: two algorithms and an independent recheck -------------===//
  const unsigned NumShared = Prog->Symbols->NumSharedVars;
  ParallelDynamicGraph PDG(L, NumShared);
  RaceDetector Detector(PDG, *Prog->Symbols);
  RaceDetectionResult Naive = Detector.detect(RaceAlgorithm::NaiveAllPairs);
  RaceDetectionResult Indexed = Detector.detect(RaceAlgorithm::VarIndexed);
  RaceDetectionResult Merged = Detector.detect(RaceAlgorithm::Interval);
  if (Naive.Races.size() != Indexed.Races.size())
    return Fail("race/algorithms",
                "NaiveAllPairs found " + std::to_string(Naive.Races.size()) +
                    ", VarIndexed " + std::to_string(Indexed.Races.size()));
  if (Naive.Races.size() != Merged.Races.size())
    return Fail("race/algorithms",
                "NaiveAllPairs found " + std::to_string(Naive.Races.size()) +
                    ", Interval " + std::to_string(Merged.Races.size()));
  for (size_t I = 0; I != Naive.Races.size(); ++I) {
    if (!(Naive.Races[I] == Indexed.Races[I]))
      return Fail("race/algorithms",
                  "race " + std::to_string(I) + " differs between algorithms");
    if (!(Naive.Races[I] == Merged.Races[I]))
      return Fail("race/algorithms", "race " + std::to_string(I) +
                                         " differs from the interval merge");
  }
  {
    std::vector<RaceTuple> Rechecked, Detected;
    std::string Err;
    if (recheckRaces(L, NumShared, Rechecked, Err)) {
      for (const Race &R : Naive.Races)
        Detected.push_back(tupleOf(R));
      if (Detected != Rechecked) {
        auto Describe = [](const std::vector<RaceTuple> &V) {
          std::string S = std::to_string(V.size()) + " races";
          for (size_t I = 0; I != std::min<size_t>(V.size(), 4); ++I)
            S += " (s" + std::to_string(std::get<0>(V[I])) + " p" +
                 std::to_string(std::get<1>(V[I])) + "e" +
                 std::to_string(std::get<2>(V[I])) + "/p" +
                 std::to_string(std::get<3>(V[I])) + "e" +
                 std::to_string(std::get<4>(V[I])) + ")";
          return S;
        };
        return Fail("race/recheck", "detector: " + Describe(Detected) +
                                        "; recheck: " + Describe(Rechecked));
      }
    }
  }
  Report.RaceFree = Naive.Races.empty();
  Report.Races = unsigned(Naive.Races.size());

  //===--- replay/*: serial engines, memoized, parallel, cached ----------===//
  LogIndex Index(L);
  std::vector<ParallelReplayer::IntervalRef> Refs;
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
    ReplayServiceOptions SerialOpts;
    SerialOpts.Threads = 0;
    ParallelReplayer Serial(*Prog, Mem, Index, SerialOpts);
    for (size_t I = 0; I != Refs.size(); ++I) {
      auto R = Serial.get(Refs[I].first, Refs[I].second);
      if (!R)
        return Fail("replay/service", "serial get returned null");
      if (auto D = cmpReplay(*R, Reference[I]); !D.empty())
        return Fail("replay/service",
                    "pid " + std::to_string(Refs[I].first) + " interval " +
                        std::to_string(Refs[I].second) + ": " + D);
      auto Again = Serial.get(Refs[I].first, Refs[I].second);
      if (!Again || !(cmpReplay(*Again, Reference[I]).empty()))
        return Fail("replay/cache", "cached re-read differs from original");
    }

    ReplayServiceOptions ParOpts;
    ParOpts.Threads = Config.ReplayThreads;
    ParallelReplayer Parallel(*Prog, Mem, Index, ParOpts);
    std::vector<ParallelReplayer::ReplayPtr> Many = Parallel.getMany(Refs);
    if (Many.size() != Refs.size())
      return Fail("replay/parallel", "getMany result count differs");
    for (size_t I = 0; I != Many.size(); ++I) {
      if (!Many[I])
        return Fail("replay/parallel", "getMany returned null");
      if (auto D = cmpReplay(*Many[I], Reference[I]); !D.empty())
        return Fail("replay/parallel",
                    "pid " + std::to_string(Refs[I].first) + " interval " +
                        std::to_string(Refs[I].second) + ": " + D);
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

    std::vector<std::pair<ParallelReplayer::IntervalRef, BuiltFragment>>
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
