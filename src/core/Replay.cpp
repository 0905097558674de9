//===- core/Replay.cpp ----------------------------------------------------===//
//
// Part of PPD. See Replay.h.
//
// Replay runs the one handler set (vm/Interp.h) over the emulation
// package under the replay policy below: shared values come from prelogs
// and unit logs, synchronization results from the log, logged callees
// are skipped through their postlogs, and Stop markers end the replay.
// Its output answers to the §5.5 theorem oracle (a FullTrace run,
// testing/DiffOracles.cpp).
//
//===----------------------------------------------------------------------===//

#include "core/Replay.h"

#include "sema/ProgramDatabase.h"
#include "vm/Interp.h"

#include <algorithm>
#include <cassert>

using namespace ppd;

namespace {

/// The single-process replay interpreter.
class Replayer {
public:
  Replayer(const CompiledProgram &Prog, const ProcessLog &Proc,
           uint32_t Pid, const LogInterval &Interval,
           const ReplayOptions &Options)
      : Prog(Prog), Records(Proc.Records), Pid(Pid), Interval(Interval),
        Options(Options) {}

  ReplayResult run();

private:
  struct Policy;

  void finish(bool OkFlag) {
    Result.Ok = OkFlag;
    Done = true;
  }
  void diverge(const std::string &Message) {
    if (WhatIf) {
      Result.Diverged = true;
      return;
    }
    Result.Error = Message;
    finish(false);
  }

  /// True when the cursor sits at the end of what actually executed: the
  /// log is exhausted, or a Stop marker (machine freeze) or the terminal
  /// Stopped sync node flushed after a failure is next.
  bool atExecutionEnd() const {
    if (Cursor >= Records.size())
      return true;
    const LogRecord &R = Records[Cursor];
    return R.Kind == LogRecordKind::Stop ||
           (R.Kind == LogRecordKind::SyncEvent && R.Sync == SyncKind::Stopped);
  }

  /// The Stop marker at the cursor; null when there is none or the
  /// replay is a what-if (which runs on past the logged execution).
  const LogRecord *stopMarker() const {
    if (WhatIf || Cursor >= Records.size() ||
        Records[Cursor].Kind != LogRecordKind::Stop)
      return nullptr;
    return &Records[Cursor];
  }

  /// A Stop marker at the cursor means the machine froze this process in
  /// the record-free tail, in or before the marker's statement. True (and
  /// the replay finished as Partial) when the tail reaches that point:
  /// statement \p Next is the marker's (breakpoints fire before the
  /// statement executes, so its event must not be fabricated), or the tail
  /// began inside the marker's statement and moves on. A marker without a
  /// statement stops at once.
  bool reachedStop(StmtId Next) {
    const LogRecord *Marker = stopMarker();
    if (!Marker || (Marker->Stmt != InvalidId && Marker->Stmt != Next &&
                    Marker->Stmt != LastStmt))
      return false;
    Result.Partial = true;
    finish(true);
    return true;
  }

  /// True when the machine froze the process after \p Callee logged its
  /// exit but before it returned: a Stop marker follows the exit postlog
  /// and names no statement or one of the callee's own. (A recursive
  /// caller's own statements read the same way; replay then stops early,
  /// which shortens the trace but never invents one.)
  bool stoppedBeforeReturn(uint32_t Callee) const {
    const LogRecord *Marker = stopMarker();
    if (!Marker)
      return false;
    StmtId At = Marker->Stmt;
    if (At == InvalidId)
      return true;
    const FuncDecl *Owner =
        Prog.isStmt(At) ? Prog.Database->owningFunc(At) : nullptr;
    return Owner && Owner->Index == Callee;
  }

  /// Consumes the next record if it has the expected shape; returns null
  /// otherwise. At end-of-log sets Partial and stops (the process stopped
  /// mid-interval). Under what-if divergence, synthesis is the caller's
  /// job.
  const LogRecord *consume(LogRecordKind Kind) {
    if (atExecutionEnd()) {
      if (!WhatIf) {
        Result.Partial = true;
        finish(true);
      }
      return nullptr;
    }
    const LogRecord &R = Records[Cursor];
    if (R.Kind != Kind)
      return nullptr;
    ++Cursor;
    return &R;
  }

  const LogRecord *consumeSync(SyncKind Kind) {
    if (atExecutionEnd()) {
      if (!WhatIf) {
        Result.Partial = true;
        finish(true);
      }
      return nullptr;
    }
    if (Records[Cursor].Kind == LogRecordKind::SyncEvent &&
        Records[Cursor].Sync == Kind)
      return &Records[Cursor++];
    return nullptr;
  }

  /// Consumes the sync record a P, V, send or spawn left; a missing one is
  /// a divergence. False when the replay stops here.
  bool expectSync(SyncKind Kind, const char *Missing) {
    if (!consumeSync(Kind) && !Done && !WhatIf)
      diverge(Missing);
    return !Done;
  }

  /// Pushes the value a receive or input record supplies. A what-if run
  /// that left the logged path gets 0.
  bool pushLogged(const LogRecord *R, const char *Missing) {
    if (R) {
      Stack.push_back(R->Value);
      return true;
    }
    if (Done)
      return false;
    diverge(Missing);
    if (WhatIf)
      Stack.push_back(0);
    return !Done;
  }

  /// A record read back from disk may name a variable the program does
  /// not have, or carry more values than it has slots. Then the log is
  /// corrupt and the replay fails — what-if replays too — instead of
  /// writing out of bounds.
  bool varsFit(const LogRecord &R) {
    for (const VarValue &V : R.Vars)
      if (!Prog.Symbols->fits(V.Var, V.Values.size())) {
        badRecord("log record's variables do not fit the program");
        return false;
      }
    return true;
  }
  void badRecord(const char *Message) {
    Result.Error = Message;
    Result.BadRecord = true;
    finish(false);
  }

  void restoreVars(const LogRecord &R) {
    if (!varsFit(R))
      return;
    for (const VarValue &V : R.Vars)
      writeVarWhole(V.Var, V.Values);
  }

  void writeVarWhole(VarId Var, const SmallVec<int64_t, 2> &Values) {
    const VarInfo &Info = Prog.Symbols->var(Var);
    int64_t *Base = baseOf(Info);
    if (!Base)
      return;
    std::copy(Values.begin(), Values.end(), Base);
  }

  int64_t *baseOf(const VarInfo &Info) {
    switch (Info.Kind) {
    case VarKind::SharedGlobal:
      return &Shared[Info.Offset];
    case VarKind::PrivateGlobal:
      return &Priv[Info.Offset];
    case VarKind::Param:
    case VarKind::Local:
      // Restoration targets the interval's own function frame (the root);
      // callee locals of skipped intervals are ignored.
      if (!Info.Func || Info.Func->Index != RootFunc)
        return nullptr;
      return SlotArena.data() + Frames.front().SlotBase + Info.Offset;
    }
    return nullptr;
  }

  /// Applies the global (shared + per-process) values of a skipped
  /// interval's postlog.
  void applyPostlogGlobals(const LogRecord &R) {
    if (!varsFit(R))
      return;
    for (const VarValue &V : R.Vars) {
      const VarInfo &Info = Prog.Symbols->var(V.Var);
      if (!Info.isGlobal())
        continue;
      writeVarWhole(V.Var, V.Values);
    }
  }

  void applyOverrides() {
    for (const ReplayOverride &O : Options.Overrides) {
      if (O.AtEvent != Result.Events.Events.size())
        continue;
      const VarInfo &Info = Prog.Symbols->var(O.Var);
      int64_t *Base = baseOf(Info);
      if (!Base)
        continue;
      uint32_t Offset = O.Index < 0 ? 0 : uint32_t(O.Index);
      if (Offset < Info.slotCount())
        Base[Offset] = O.Value;
    }
  }

  void skipNestedCall(uint32_t Callee, StmtId Stmt);
  // The log-record operations; false when the replay stops here.
  bool prelog(uint32_t EBlockId);
  bool postlog(uint32_t EBlockId, uint32_t Flags);
  bool unitLog(uint32_t UnitId);

  const CompiledProgram &Prog;
  const RecordSeq &Records;
  uint32_t Pid;
  const LogInterval &Interval;
  const ReplayOptions &Options;

  ReplayResult Result;
  bool Done = false;
  bool WhatIf = false;

  std::vector<Frame> Frames;
  std::vector<int64_t> Stack;
  /// Backing store for every frame's local slots (grows at Call, shrinks
  /// at Ret; capacity is retained across both).
  std::vector<int64_t> SlotArena;
  std::vector<int64_t> Shared;
  std::vector<int64_t> Priv;
  uint32_t Cursor = 0;
  /// Statement of the most recent Stmt event.
  StmtId LastStmt = InvalidId;
  uint32_t RootFunc = 0;
};

void Replayer::skipNestedCall(uint32_t Callee, StmtId Stmt) {
  // Where the nested invocation's records begin: the controller uses this
  // to locate the interval when the user expands the sub-graph node.
  uint32_t StartCursor = Cursor;
  // The next records must be the nested invocation's intervals (Fig 5.2).
  if (atExecutionEnd() || Records[Cursor].Kind != LogRecordKind::Prelog) {
    if (atExecutionEnd() && !WhatIf) {
      Result.Partial = true;
      finish(true);
      return;
    }
    diverge("expected nested interval prelog at call");
    if (WhatIf) {
      // Synthesize: pop args, push 0.
      uint32_t Argc = Prog.func(Callee).NumParams;
      Stack.resize(Stack.size() - Argc);
      Stack.push_back(0);
    }
    return;
  }

  int64_t RetVal = 0;
  bool SawExit = false;
  unsigned Depth = 0;
  while (Cursor < Records.size()) {
    const LogRecord &R = Records[Cursor++];
    if (R.Kind == LogRecordKind::Prelog) {
      ++Depth;
    } else if (R.Kind == LogRecordKind::Postlog) {
      if (Depth == 0) {
        diverge("unbalanced postlog while skipping nested call");
        return;
      }
      --Depth;
      if (Depth == 0) {
        // A directly nested interval completed: its effects on globals
        // become visible to the caller.
        applyPostlogGlobals(R);
        if (Done)
          return;
        if (R.Flags & PostlogExitsFunction) {
          RetVal = R.Value;
          SawExit = true;
          break;
        }
      }
    }
  }
  if (!SawExit || stoppedBeforeReturn(Callee)) {
    // The callee never returned: execution stopped inside it. The caller
    // cannot continue either.
    Result.Partial = true;
    finish(true);
    return;
  }

  uint32_t Argc = Prog.func(Callee).NumParams;
  assert(Stack.size() >= Argc && "call arguments missing");

  TraceEvent E;
  E.Kind = TraceEventKind::CallSkipped;
  E.Pid = Pid;
  E.Stmt = Stmt;
  E.Callee = Callee;
  E.Value = RetVal;
  E.Args.assign(Stack.end() - Argc, Stack.end());
  Stack.resize(Stack.size() - Argc);
  Stack.push_back(RetVal);
  E.LogCursor = StartCursor;
  Result.Events.append(std::move(E));
}

bool Replayer::prelog(uint32_t EBlockId) {
  // Only the interval's own prelog is ever executed (nested logged
  // calls are skipped; unlogged callees have none).
  if (EBlockId != Interval.EBlock)
    diverge("unexpected prelog");
  else if (const LogRecord *Rec = consume(LogRecordKind::Prelog))
    restoreVars(*Rec);
  else if (!Done && !WhatIf)
    diverge("missing prelog record");
  return !Done;
}

bool Replayer::postlog(uint32_t EBlockId, uint32_t Flags) {
  // Reaching a postlog in the root frame ends the interval.
  if (EBlockId != Interval.EBlock) {
    diverge("unexpected postlog");
    return !Done;
  }
  if ((Flags & PostlogExitsFunction) && !Stack.empty()) {
    Result.HasReturn = true;
    Result.ReturnValue = Stack.back();
  }
  // Verify the replayed values against the logged postlog. Shared
  // variables are excluded: even on a race-free instance another
  // process may write a shared variable between our last synchronized
  // access and the postlog capture, so the logged value can
  // legitimately postdate ours. Reads remain faithful regardless — they
  // are re-seeded from unit logs at every synchronization-unit entry
  // (§5.5).
  if (!WhatIf) {
    if (const LogRecord *Rec = consume(LogRecordKind::Postlog)) {
      if (!varsFit(*Rec))
        return false;
      for (const VarValue &V : Rec->Vars) {
        const VarInfo &Info = Prog.Symbols->var(V.Var);
        if (Info.isShared())
          continue;
        const int64_t *Base = baseOf(Info);
        if (!Base)
          continue;
        for (size_t K = 0; K != V.Values.size(); ++K)
          if (Base[K] != V.Values[K])
            Result.PostlogMismatches.push_back(
                {V.Var, int64_t(K), V.Values[K], Base[K]});
      }
    }
  }
  finish(true);
  return false;
}

bool Replayer::unitLog(uint32_t UnitId) {
  if (const LogRecord *Rec = consume(LogRecordKind::UnitLog)) {
    if (Rec->Id != UnitId) {
      --Cursor; // put it back; report divergence
      diverge("unit record id mismatch");
    } else {
      restoreVars(*Rec);
    }
  } else if (!Done && !WhatIf) {
    diverge("missing unit record");
  }
  return !Done;
}

//===----------------------------------------------------------------------===//
// The replay policy
//===----------------------------------------------------------------------===//

/// Replays one interval of one process from its log.
struct Replayer::Policy {
  Replayer &R;

  static constexpr bool Tracing = true;
  /// MaxInstructions counts trace instructions like any other.
  static constexpr bool FreeTrace = false;

  const CompiledProgram &prog() const { return R.Prog; }
  std::vector<Frame> &frames() const { return R.Frames; }
  std::vector<int64_t> &slotArena() const { return R.SlotArena; }
  std::vector<int64_t> &stack() const { return R.Stack; }
  int64_t *shared() const { return R.Shared.data(); }
  int64_t *priv() const { return R.Priv.data(); }
  TraceBuffer &trace() const { return R.Result.Events; }
  uint32_t pid() const { return R.Pid; }
  uint32_t logCursor() const { return R.Cursor; }
  StmtId currentStmt() const { return InvalidId; }

  /// Running out of budget charges the instruction that could not run.
  uint64_t outOfBudget() {
    R.Result.Error = "replay instruction budget exceeded";
    R.finish(false);
    return 1;
  }
  bool stopsAt(StmtId) { return false; }
  void exit(uint32_t, StmtId) {}

  void sharedRead(VarId) {}
  void sharedWrite(VarId) {}
  void fail(RuntimeErrorKind Kind, StmtId Stmt) {
    R.Result.FailureHit = true;
    R.Result.Failure = {Kind, R.Pid, Stmt};
    R.finish(true); // reproducing the failure is a *successful* replay
  }

  Next call(const DecodedInstr &I) {
    // An unlogged (inherited) callee is re-executed inline.
    uint32_t Callee = uint32_t(I.A);
    if (!R.Prog.func(Callee).Logged)
      return Next::Run;
    R.skipNestedCall(Callee, I.Stmt);
    return R.Done ? Next::Stop : Next::Skip;
  }
  void returnFromRoot(const DecodedInstr &, int64_t Value) {
    // Root return without a postlog stop: only possible for unlogged root
    // replay, which the controller never requests.
    R.Result.HasReturn = true;
    R.Result.ReturnValue = Value;
    R.finish(true);
  }

  // Synchronization is a no-op: its records are consumed to keep the
  // cursor aligned, and a receive takes its value from the log.
  bool semP(const DecodedInstr &) {
    return R.expectSync(SyncKind::SemAcquire, "missing P record");
  }
  bool semV(const DecodedInstr &) {
    return R.expectSync(SyncKind::SemSignal, "missing V record");
  }
  bool send(const DecodedInstr &, int64_t) {
    if (R.expectSync(SyncKind::ChanSend, "missing send record"))
      R.consumeSync(SyncKind::ChanSendUnblock); // present iff it blocked
    return !R.Done;
  }
  bool recv(const DecodedInstr &) {
    return R.pushLogged(R.consumeSync(SyncKind::ChanRecv),
                        "missing receive record");
  }
  bool spawn(const DecodedInstr &I) {
    R.Stack.resize(R.Stack.size() - uint32_t(I.B));
    return R.expectSync(SyncKind::SpawnChild, "missing spawn record");
  }
  void print(int64_t Value, StmtId Stmt) {
    R.Result.Output.push_back({R.Pid, Value, Stmt});
  }
  bool input(const DecodedInstr &) {
    return R.pushLogged(R.consume(LogRecordKind::Input),
                        "missing input record");
  }

  // The log operations stay out of line: the interpreter then never
  // needs this policy's address, and R stays in a register.
  bool prelog(const DecodedInstr &I) { return R.prelog(uint32_t(I.A)); }
  bool postlog(const DecodedInstr &I) {
    return R.postlog(uint32_t(I.A), uint32_t(I.B));
  }
  bool unitLog(const DecodedInstr &I) { return R.unitLog(uint32_t(I.A)); }

  bool beginStmt(StmtId Stmt) {
    if (R.reachedStop(Stmt))
      return false;
    R.applyOverrides();
    R.LastStmt = Stmt;
    return true;
  }
  Next traceCall(uint32_t Callee, bool Begin) {
    // Logged callees become CallSkipped events at the Call instruction.
    if (R.Prog.func(Callee).Logged)
      return Next::Skip;
    // An inlined call is record-free: it must not begin past the point
    // where the machine froze the process.
    if (Begin && R.reachedStop(InvalidId))
      return Next::Stop;
    return Next::Run;
  }
  void halt() { R.finish(true); }
};

ReplayResult Replayer::run() {
  WhatIf = !Options.Overrides.empty();
  if (Interval.EBlock >= Prog.EBlocks.size() ||
      Interval.PrelogRecord >= Records.size()) {
    badRecord("log interval does not match the program or its section");
    return Result;
  }

  const EBlockInfo &EBlock = Prog.eblock(Interval.EBlock);
  RootFunc = EBlock.Func;

  Shared.assign(Prog.Symbols->SharedMemorySize, 0);
  Priv.assign(Prog.Symbols->PrivateGlobalSize, 0);

  Frame Root;
  Root.Func = RootFunc;
  Root.SlotCount = Prog.func(RootFunc).FrameSize;
  SlotArena.assign(Root.SlotCount, 0);
  Frames.push_back(Root);
  Cursor = Interval.PrelogRecord;

  Result.Instructions =
      interpret(Policy{*this}, EBlock.EmuEntryPc, Options.MaxInstructions);

  Result.Shared = std::move(Shared);
  Result.PrivateGlobals = std::move(Priv);
  Result.RootSlots.assign(SlotArena.begin(),
                          SlotArena.begin() + Frames.front().SlotCount);
  return Result;
}

} // namespace

ReplayResult ReplayEngine::replay(const ExecutionLog &Log, uint32_t Pid,
                                  const LogInterval &Interval,
                                  const ReplayOptions &Options) const {
  return replay(Log.Procs[Pid], Pid, Interval, Options);
}

ReplayResult ReplayEngine::replay(const ProcessLog &Proc, uint32_t Pid,
                                  const LogInterval &Interval,
                                  const ReplayOptions &Options) const {
  Replayer R(Prog, Proc, Pid, Interval, Options);
  return R.run();
}
