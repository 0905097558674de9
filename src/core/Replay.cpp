//===- core/Replay.cpp ----------------------------------------------------===//
//
// Part of PPD. See Replay.h.
//
// The replay interpreter (runDecoded) is a token-threaded loop over the
// emulation package's pre-decoded stream. The record-cursor operations —
// the sync no-ops, prelog/postlog/unit-log handling, trace event
// construction, nested-call skipping — are cold helpers it calls out to.
// Its output answers to the §5.5 theorem oracle (a FullTrace run,
// testing/DiffOracles.cpp).
//
//===----------------------------------------------------------------------===//

#include "core/Replay.h"

#include "sema/ProgramDatabase.h"
#include "support/Arith.h"
#include "vm/Dispatch.h"
#include "vm/InterpCore.h"

#include <algorithm>
#include <cassert>

using namespace ppd;

namespace {

struct RFrame {
  uint32_t Func = 0;
  uint32_t ReturnPc = 0;
  uint32_t StackBase = 0;
  /// The frame's local slots live in Replayer::SlotArena at
  /// [SlotBase, SlotBase + SlotCount) — call/return only moves the arena's
  /// end, so re-executed inherited calls never allocate in steady state.
  uint32_t SlotBase = 0;
  uint32_t SlotCount = 0;
  uint32_t OpenEvent = InvalidId;
};

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
  enum class StepOutcome { Continue, Stop };

  const Chunk &chunk() const { return Prog.func(Frames.back().Func).Emu; }

  /// Local slots of the innermost frame.
  int64_t *topSlots() { return SlotArena.data() + Frames.back().SlotBase; }

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

  TraceEvent *openEvent() {
    uint32_t Idx = Frames.back().OpenEvent;
    return Idx == InvalidId ? nullptr : &Result.Events.Events[Idx];
  }
  void traceRead(VarId Var, int64_t Value, int64_t Index) {
    if (TraceEvent *E = openEvent())
      E->Reads.push_back({Var, Value, Index});
  }
  void traceWrite(VarId Var, int64_t Value, int64_t Index) {
    if (TraceEvent *E = openEvent())
      E->Writes.push_back({Var, Value, Index});
  }

  void failHere(RuntimeErrorKind Kind, StmtId Stmt) {
    Result.FailureHit = true;
    Result.Failure = {Kind, Pid, Stmt};
    finish(true); // reproducing the failure is a *successful* replay
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

  // Cold operations. They operate on the member state (Stack, Pc, Cursor,
  // Frames); the interpreter syncs its Ip with Pc around the two that
  // transfer control (doCall, doRet).
  StepOutcome doSemP();
  StepOutcome doSemV();
  StepOutcome doSend();
  StepOutcome doRecv();
  StepOutcome doSpawn(uint32_t Argc);
  StepOutcome doInput();
  StepOutcome doPrelog(uint32_t EBlockId);
  StepOutcome doPostlog(uint32_t EBlockId, uint32_t Flags);
  StepOutcome doUnitLog(uint32_t UnitId);
  StepOutcome doTraceStmt(StmtId Stmt);
  StepOutcome doTraceCallBegin(uint32_t Callee, StmtId Stmt);
  void doTraceCallEnd(uint32_t Callee);
  StepOutcome doCall(uint32_t Callee, uint32_t Argc, StmtId Stmt);
  StepOutcome doRet();

  /// Interprets from Pc until the replay stops. A fused pair counts as
  /// two instructions and splits at the instruction budget.
  void runDecoded();

  const CompiledProgram &Prog;
  const RecordSeq &Records;
  uint32_t Pid;
  const LogInterval &Interval;
  const ReplayOptions &Options;

  ReplayResult Result;
  bool Done = false;
  bool WhatIf = false;

  std::vector<RFrame> Frames;
  std::vector<int64_t> Stack;
  /// Backing store for every frame's local slots (grows at Call, shrinks
  /// at Ret; capacity is retained across both).
  std::vector<int64_t> SlotArena;
  std::vector<int64_t> Shared;
  std::vector<int64_t> Priv;
  uint32_t Pc = 0;
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

//===----------------------------------------------------------------------===//
// Cold operations
//===----------------------------------------------------------------------===//

Replayer::StepOutcome Replayer::doSemP() {
  if (!consumeSync(SyncKind::SemAcquire) && !Done && !WhatIf)
    diverge("missing P record");
  return Done ? StepOutcome::Stop : StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doSemV() {
  if (!consumeSync(SyncKind::SemSignal) && !Done && !WhatIf)
    diverge("missing V record");
  return Done ? StepOutcome::Stop : StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doSend() {
  assert(!Stack.empty() && "send value missing");
  Stack.pop_back(); // the sent value leaves this process
  if (!consumeSync(SyncKind::ChanSend) && !Done && !WhatIf)
    diverge("missing send record");
  if (!Done)
    consumeSync(SyncKind::ChanSendUnblock); // present iff the send blocked
  return Done ? StepOutcome::Stop : StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doRecv() {
  if (const LogRecord *R = consumeSync(SyncKind::ChanRecv)) {
    Stack.push_back(R->Value);
    return StepOutcome::Continue;
  }
  if (Done)
    return StepOutcome::Stop;
  diverge("missing receive record");
  if (WhatIf)
    Stack.push_back(0);
  return Done ? StepOutcome::Stop : StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doSpawn(uint32_t Argc) {
  Stack.resize(Stack.size() - Argc);
  if (!consumeSync(SyncKind::SpawnChild) && !Done && !WhatIf)
    diverge("missing spawn record");
  return Done ? StepOutcome::Stop : StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doInput() {
  if (const LogRecord *R = consume(LogRecordKind::Input)) {
    Stack.push_back(R->Value);
    return StepOutcome::Continue;
  }
  if (Done)
    return StepOutcome::Stop;
  diverge("missing input record");
  if (WhatIf)
    Stack.push_back(0);
  return Done ? StepOutcome::Stop : StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doPrelog(uint32_t EBlockId) {
  // Only the interval's own prelog is ever executed (nested logged calls
  // are skipped; unlogged callees have none).
  if (EBlockId != Interval.EBlock) {
    diverge("unexpected prelog");
    return Done ? StepOutcome::Stop : StepOutcome::Continue;
  }
  if (const LogRecord *R = consume(LogRecordKind::Prelog))
    restoreVars(*R);
  else if (!Done && !WhatIf)
    diverge("missing prelog record");
  return Done ? StepOutcome::Stop : StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doPostlog(uint32_t EBlockId, uint32_t Flags) {
  // Reaching a postlog in the root frame ends the interval.
  if (EBlockId != Interval.EBlock) {
    diverge("unexpected postlog");
    return Done ? StepOutcome::Stop : StepOutcome::Continue;
  }
  if ((Flags & PostlogExitsFunction) && !Stack.empty()) {
    Result.HasReturn = true;
    Result.ReturnValue = Stack.back();
  }
  // Verify the replayed values against the logged postlog. Shared
  // variables are excluded: even on a race-free instance another process
  // may write a shared variable between our last synchronized access and
  // the postlog capture, so the logged value can legitimately postdate
  // ours. Reads remain faithful regardless — they are re-seeded from
  // unit logs at every synchronization-unit entry (§5.5).
  if (!WhatIf) {
    if (const LogRecord *R = consume(LogRecordKind::Postlog)) {
      if (!varsFit(*R))
        return StepOutcome::Stop;
      for (const VarValue &V : R->Vars) {
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
  return StepOutcome::Stop;
}

Replayer::StepOutcome Replayer::doUnitLog(uint32_t UnitId) {
  if (const LogRecord *R = consume(LogRecordKind::UnitLog)) {
    if (R->Id != UnitId) {
      --Cursor; // put it back; report divergence
      diverge("unit record id mismatch");
    } else {
      restoreVars(*R);
    }
  } else if (!Done && !WhatIf) {
    diverge("missing unit record");
  }
  return Done ? StepOutcome::Stop : StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doTraceStmt(StmtId Stmt) {
  if (reachedStop(Stmt))
    return StepOutcome::Stop;
  applyOverrides();
  LastStmt = Stmt;
  TraceEvent &E = Result.Events.emplace();
  E.Pid = Pid;
  E.Stmt = Stmt;
  E.LogCursor = Cursor;
  Frames.back().OpenEvent = E.Index;
  return StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doTraceCallBegin(uint32_t Callee,
                                                 StmtId Stmt) {
  // Logged callees become CallSkipped events at the Call instruction.
  if (Prog.func(Callee).Logged)
    return StepOutcome::Continue;
  // An inlined call is record-free: it must not begin past the point
  // where the machine froze the process.
  if (reachedStop(InvalidId))
    return StepOutcome::Stop;
  TraceEvent E;
  E.Kind = TraceEventKind::CallBegin;
  E.Pid = Pid;
  E.Stmt = Stmt;
  E.Callee = Callee;
  uint32_t Argc = Prog.func(Callee).NumParams;
  E.Args.assign(Stack.end() - Argc, Stack.end());
  E.LogCursor = Cursor;
  Result.Events.append(std::move(E));
  return StepOutcome::Continue;
}

void Replayer::doTraceCallEnd(uint32_t Callee) {
  if (Prog.func(Callee).Logged)
    return;
  TraceEvent E;
  E.Kind = TraceEventKind::CallEnd;
  E.Pid = Pid;
  E.Callee = Callee;
  E.Value = Stack.back();
  E.LogCursor = Cursor;
  Result.Events.append(std::move(E));
}

Replayer::StepOutcome Replayer::doCall(uint32_t Callee, uint32_t Argc,
                                       StmtId Stmt) {
  if (Prog.func(Callee).Logged) {
    skipNestedCall(Callee, Stmt);
    return Done ? StepOutcome::Stop : StepOutcome::Continue;
  }
  // Inherited leaf: re-execute inline through the emulation package.
  assert(Stack.size() >= Argc && "call arguments missing");
  RFrame Fr;
  Fr.Func = Callee;
  Fr.ReturnPc = Pc;
  Fr.StackBase = uint32_t(Stack.size() - Argc);
  Fr.SlotBase = uint32_t(SlotArena.size());
  Fr.SlotCount = Prog.func(Callee).FrameSize;
  SlotArena.resize(Fr.SlotBase + Fr.SlotCount, 0);
  std::copy(Stack.end() - Argc, Stack.end(),
            SlotArena.begin() + Fr.SlotBase);
  Stack.resize(Stack.size() - Argc);
  Frames.push_back(Fr);
  Pc = 0;
  return StepOutcome::Continue;
}

Replayer::StepOutcome Replayer::doRet() {
  assert(!Stack.empty() && "return value missing");
  int64_t ReturnValue = Stack.back();
  Stack.pop_back();
  if (Frames.size() == 1) {
    // Root return without a postlog stop: only possible for unlogged
    // root replay, which the controller never requests.
    Result.HasReturn = true;
    Result.ReturnValue = ReturnValue;
    finish(true);
    return StepOutcome::Stop;
  }
  RFrame Top = Frames.back();
  Frames.pop_back();
  SlotArena.resize(Top.SlotBase);
  Stack.resize(Top.StackBase);
  Stack.push_back(ReturnValue);
  Pc = Top.ReturnPc;
  return StepOutcome::Continue;
}

//===----------------------------------------------------------------------===//
// The interpreter
//===----------------------------------------------------------------------===//

void Replayer::runDecoded() {
  PPD_DISPATCH_TABLE();

  // Hot state lives in locals and is synced back to the members on every
  // exit path. Slots caches the arena pointer of the innermost frame; it
  // is reloaded after Call and Ret (the arena may reallocate, and the
  // frame changes).
  auto BaseOf = [&](uint32_t Func) {
    return Prog.func(Func).EmuDecoded.data();
  };
  const DecodedInstr *Base = BaseOf(Frames.back().Func);
  uint32_t Ip = Pc;
  int64_t *Slots = topSlots();

  auto Push = [&](int64_t V) { Stack.push_back(V); };
  auto Pop = [&]() {
    assert(!Stack.empty() && "operand stack underflow in replay");
    int64_t V = Stack.back();
    Stack.pop_back();
    return V;
  };

  const uint64_t Budget = Options.MaxInstructions;
  for (;;) {
    // Per-instruction prologue. Running out of budget charges the
    // instruction that could not run.
    if (Result.Instructions >= Budget) {
      ++Result.Instructions;
      Result.Error = "replay instruction budget exceeded";
      finish(false);
      goto Exit;
    }
    ++Result.Instructions;
    const DecodedInstr &I = Base[Ip];
    ++Ip;

    PPD_DISPATCH(I.Opcode) {
      PPD_OP(PushConst) {
        Push(I.Imm);
        continue;
      }
      PPD_OP(Pop) {
        Pop();
        continue;
      }
      PPD_OP(ToBool) {
        Stack.back() = Stack.back() != 0;
        continue;
      }

      PPD_OP(LoadLocal) {
        int64_t V = Slots[I.A];
        Push(V);
        traceRead(VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(StoreLocal) {
        int64_t V = Pop();
        Slots[I.A] = V;
        traceWrite(VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(LoadLocalElem) {
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          failHere(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        int64_t V = Slots[I.A + Idx];
        Push(V);
        traceRead(VarId(I.B), V, Idx);
        continue;
      }
      PPD_OP(StoreLocalElem) {
        int64_t V = Pop();
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          failHere(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        Slots[I.A + Idx] = V;
        traceWrite(VarId(I.B), V, Idx);
        continue;
      }
      PPD_OP(ZeroLocal) {
        std::fill_n(Slots + I.A, I.Imm, 0);
        traceWrite(VarId(I.B), 0, -1);
        continue;
      }

      PPD_OP(LoadShared) {
        int64_t V = Shared[uint32_t(I.A)];
        Push(V);
        traceRead(VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(LoadSharedElem) {
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          failHere(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        int64_t V = Shared[uint32_t(I.A) + uint32_t(Idx)];
        Push(V);
        traceRead(VarId(I.B), V, Idx);
        continue;
      }
      PPD_OP(LoadPriv) {
        int64_t V = Priv[uint32_t(I.A)];
        Push(V);
        traceRead(VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(LoadPrivElem) {
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          failHere(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        int64_t V = Priv[uint32_t(I.A) + uint32_t(Idx)];
        Push(V);
        traceRead(VarId(I.B), V, Idx);
        continue;
      }

      PPD_OP(StoreShared) {
        int64_t V = Pop();
        Shared[uint32_t(I.A)] = V;
        traceWrite(VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(StoreSharedElem) {
        int64_t V = Pop();
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          failHere(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        Shared[uint32_t(I.A) + uint32_t(Idx)] = V;
        traceWrite(VarId(I.B), V, Idx);
        continue;
      }
      PPD_OP(StorePriv) {
        int64_t V = Pop();
        Priv[uint32_t(I.A)] = V;
        traceWrite(VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(StorePrivElem) {
        int64_t V = Pop();
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          failHere(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        Priv[uint32_t(I.A) + uint32_t(Idx)] = V;
        traceWrite(VarId(I.B), V, Idx);
        continue;
      }

      PPD_OP(Add) {
        int64_t B = Pop();
        Stack.back() = wrapAdd(Stack.back(), B);
        continue;
      }
      PPD_OP(Sub) {
        int64_t B = Pop();
        Stack.back() = wrapSub(Stack.back(), B);
        continue;
      }
      PPD_OP(Mul) {
        int64_t B = Pop();
        Stack.back() = wrapMul(Stack.back(), B);
        continue;
      }
      PPD_OP(Div) {
        int64_t B = Pop();
        if (B == 0) {
          failHere(RuntimeErrorKind::DivideByZero, I.Stmt);
          goto Exit;
        }
        Stack.back() = wrapDiv(Stack.back(), B);
        continue;
      }
      PPD_OP(Mod) {
        int64_t B = Pop();
        if (B == 0) {
          failHere(RuntimeErrorKind::ModuloByZero, I.Stmt);
          goto Exit;
        }
        Stack.back() = wrapMod(Stack.back(), B);
        continue;
      }
      PPD_OP(Neg) {
        Stack.back() = wrapNeg(Stack.back());
        continue;
      }
      PPD_OP(Not) {
        Stack.back() = Stack.back() == 0;
        continue;
      }

      PPD_OP(CmpEq)
      PPD_OP(CmpNe)
      PPD_OP(CmpLt)
      PPD_OP(CmpLe)
      PPD_OP(CmpGt)
      PPD_OP(CmpGe) {
        int64_t B = Pop();
        Stack.back() = evalCmp(CmpKind(I.Sub), Stack.back(), B);
        continue;
      }

      PPD_OP(Jump) {
        Ip = uint32_t(I.A);
        continue;
      }
      PPD_OP(JumpIfFalse)
      PPD_OP(JumpIfTrue) {
        int64_t Cond = Pop();
        if (TraceEvent *E = openEvent()) {
          E->IsPredicate = true;
          E->BranchTaken = Cond != 0;
        }
        bool Taken = I.Opcode == DOp::JumpIfFalse ? Cond == 0 : Cond != 0;
        if (Taken)
          Ip = uint32_t(I.A);
        continue;
      }
      PPD_OP(JumpIfCmp) {
        // Fused Cmp + JumpIf. The compare is this instruction; the branch
        // is the next one and only executes if the budget allows it —
        // otherwise the compare result is pushed and the pc stays on the
        // branch's own (still fully decoded) slot.
        int64_t B = Pop(), A = Pop();
        int64_t Cond = evalCmp(CmpKind(I.Sub >> 1), A, B);
        if (Result.Instructions < Budget) {
          ++Result.Instructions;
          if (TraceEvent *E = openEvent()) {
            E->IsPredicate = true;
            E->BranchTaken = Cond != 0;
          }
          bool Taken = (I.Sub & 1) ? Cond != 0 : Cond == 0;
          Ip = Taken ? uint32_t(I.A) : Ip + 1;
        } else {
          Push(Cond);
        }
        continue;
      }
      PPD_OP(StoreLocalImm) {
        // Fused PushConst + StoreLocal, split the same way.
        if (Result.Instructions < Budget) {
          ++Result.Instructions;
          ++Ip; // skip the second half's slot
          Slots[I.A] = I.Imm;
          traceWrite(VarId(I.B), I.Imm, -1);
        } else {
          Push(I.Imm);
        }
        continue;
      }

      PPD_OP(Call) {
        Pc = Ip;
        if (doCall(uint32_t(I.A), uint32_t(I.B), I.Stmt) ==
            StepOutcome::Stop)
          goto Exit;
        Ip = Pc;
        Base = BaseOf(Frames.back().Func);
        Slots = topSlots();
        continue;
      }
      PPD_OP(Ret) {
        if (doRet() == StepOutcome::Stop)
          goto Exit;
        Ip = Pc;
        Base = BaseOf(Frames.back().Func);
        Slots = topSlots();
        continue;
      }
      PPD_OP(CallBuiltin) {
        if (!applyBuiltin(Builtin(I.A), Stack)) {
          failHere(RuntimeErrorKind::NegativeSqrt, I.Stmt);
          goto Exit;
        }
        continue;
      }

      PPD_OP(SemP) {
        if (doSemP() == StepOutcome::Stop)
          goto Exit;
        continue;
      }
      PPD_OP(SemV) {
        if (doSemV() == StepOutcome::Stop)
          goto Exit;
        continue;
      }
      PPD_OP(SendCh) {
        if (doSend() == StepOutcome::Stop)
          goto Exit;
        continue;
      }
      PPD_OP(RecvCh) {
        if (doRecv() == StepOutcome::Stop)
          goto Exit;
        continue;
      }
      PPD_OP(SpawnProc) {
        if (doSpawn(uint32_t(I.B)) == StepOutcome::Stop)
          goto Exit;
        continue;
      }

      PPD_OP(PrintVal) {
        int64_t Value = Pop();
        Result.Output.push_back({Pid, Value, I.Stmt});
        continue;
      }
      PPD_OP(InputVal) {
        if (doInput() == StepOutcome::Stop)
          goto Exit;
        continue;
      }

      PPD_OP(Prelog) {
        if (doPrelog(uint32_t(I.A)) == StepOutcome::Stop)
          goto Exit;
        continue;
      }
      PPD_OP(Postlog) {
        if (doPostlog(uint32_t(I.A), uint32_t(I.B)) == StepOutcome::Stop)
          goto Exit;
        continue;
      }
      PPD_OP(UnitLog) {
        if (doUnitLog(uint32_t(I.A)) == StepOutcome::Stop)
          goto Exit;
        continue;
      }

      PPD_OP(TraceStmt) {
        if (doTraceStmt(StmtId(I.A)) == StepOutcome::Stop)
          goto Exit;
        continue;
      }
      PPD_OP(TraceCallBegin) {
        if (doTraceCallBegin(uint32_t(I.A), StmtId(I.B)) == StepOutcome::Stop)
          goto Exit;
        continue;
      }
      PPD_OP(TraceCallEnd) {
        doTraceCallEnd(uint32_t(I.A));
        continue;
      }

      PPD_OP(Halt) {
        finish(true);
        goto Exit;
      }
    }
    PPD_END_DISPATCH();
    assert(false && "unknown opcode in replay");
  }

Exit:
  Pc = Ip;
}

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

  RFrame Root;
  Root.Func = RootFunc;
  Root.SlotBase = 0;
  Root.SlotCount = Prog.func(RootFunc).FrameSize;
  SlotArena.assign(Root.SlotCount, 0);
  Frames.push_back(Root);

  Pc = EBlock.EmuEntryPc;
  Cursor = Interval.PrelogRecord;

  runDecoded();

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
