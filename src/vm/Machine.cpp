//===- vm/Machine.cpp -----------------------------------------------------===//
//
// Part of PPD. See Machine.h.
//
// The interpreter (runSlice) is a mode-specialized, token-threaded engine
// over the pre-decoded instruction stream. It charges one step per base
// instruction: a fused pair is two steps and splits at the slice budget,
// and the emulation package's trace instructions are free. Plain, Logging
// and FullTrace runs of one seed therefore preempt at the same points and
// interleave identically, which is what lets a FullTrace run serve as the
// §5.5 reference for replay (testing/DiffOracles.cpp, spec/trace).
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "support/Arith.h"
#include "vm/Dispatch.h"
#include "vm/InterpCore.h"

#include <algorithm>
#include <cassert>

using namespace ppd;

const char *ppd::runtimeErrorName(RuntimeErrorKind Kind) {
  switch (Kind) {
  case RuntimeErrorKind::None:
    return "none";
  case RuntimeErrorKind::DivideByZero:
    return "divide by zero";
  case RuntimeErrorKind::ModuloByZero:
    return "modulo by zero";
  case RuntimeErrorKind::IndexOutOfBounds:
    return "array index out of bounds";
  case RuntimeErrorKind::NegativeSqrt:
    return "sqrt of a negative value";
  case RuntimeErrorKind::InputExhausted:
    return "input exhausted";
  case RuntimeErrorKind::StackOverflow:
    return "call stack overflow";
  }
  return "?";
}

std::string RuntimeError::str() const {
  std::string Out = "process ";
  Out += std::to_string(Pid);
  Out += ": ";
  Out += runtimeErrorName(Kind);
  if (Stmt != InvalidId)
    Out += " at s" + std::to_string(Stmt);
  return Out;
}

Machine::Machine(const CompiledProgram &Prog, MachineOptions Options)
    : Prog(Prog), Options(std::move(Options)), SchedRng(this->Options.Seed) {
  BreakSet.insert(this->Options.Breakpoints.begin(),
                  this->Options.Breakpoints.end());
  // Shared memory with initial values.
  Shared.assign(Prog.Symbols->SharedMemorySize, 0);
  for (VarId V : Prog.Symbols->SharedVars)
    if (const VarInfo &Info = Prog.Symbols->var(V); !Info.isArray())
      Shared[Info.Offset] = Info.Init;

  for (int64_t Init : Prog.SemInit) {
    Semaphore S;
    S.Count = Init;
    Sems.push_back(std::move(S));
  }
  for (int64_t Capacity : Prog.ChanCapacity) {
    Channel C;
    C.Capacity = Capacity;
    Chans.push_back(std::move(C));
  }

  spawnProcess(Prog.MainIndex, {}, NoPartner);
}

const Chunk &Machine::chunkOf(const Process &P) const {
  const CompiledFunction &F = Prog.func(P.Frames.back().Func);
  return tracing() ? F.Emu : F.Object;
}

uint32_t Machine::spawnProcess(uint32_t Func, std::vector<int64_t> Args,
                               uint64_t ParentSpawnSeq) {
  uint32_t Pid = uint32_t(Procs.size());
  Procs.emplace_back();
  Process &P = Procs.back();
  P.Pid = Pid;

  P.PrivateGlobals.assign(Prog.Symbols->PrivateGlobalSize, 0);
  for (VarId V : Prog.Symbols->Globals)
    if (const VarInfo &Info = Prog.Symbols->var(V);
        Info.Kind == VarKind::PrivateGlobal && !Info.isArray())
      P.PrivateGlobals[Info.Offset] = Info.Init;

  // The edge sets only ever hold shared-variable indices: size them to the
  // shared segment once so the hot insert path never reallocates.
  P.EdgeReads.reserveFor(Prog.Symbols->NumSharedVars);
  P.EdgeWrites.reserveFor(Prog.Symbols->NumSharedVars);

  if (Pid < Options.ProcessInputs.size())
    P.Inputs.assign(Options.ProcessInputs[Pid].begin(),
                    Options.ProcessInputs[Pid].end());

  Log.Procs.emplace_back();
  Log.Procs.back().Pid = Pid;
  Log.Procs.back().RootFunc = Func;
  Log.Procs.back().Args = Args;
  if (logging())
    Log.Procs.back().Records.reserve(64);
  Traces.emplace_back();

  pushFrame(P, Func, std::move(Args), /*ReturnPc=*/0);

  if (logging()) {
    uint64_t Seq;
    emitSync(P, SyncKind::ProcStart, Func, InvalidId, Seq, ParentSpawnSeq);
  }
  return Pid;
}

void Machine::pushFrame(Process &P, uint32_t Func, std::vector<int64_t> Args,
                        uint32_t ReturnPc) {
  const CompiledFunction &F = Prog.func(Func);
  Frame Fr;
  Fr.Func = Func;
  Fr.ReturnPc = ReturnPc;
  Fr.StackBase = uint32_t(P.Stack.size());
  Fr.SlotBase = uint32_t(P.SlotArena.size());
  Fr.SlotCount = F.FrameSize;
  // resize() value-initializes the new slots; capacity freed by returns is
  // reused, so steady-state call/return does not allocate.
  P.SlotArena.resize(Fr.SlotBase + F.FrameSize, 0);
  assert(Args.size() == F.NumParams && "arity checked by sema");
  std::copy(Args.begin(), Args.end(), P.SlotArena.begin() + Fr.SlotBase);
  P.Frames.push_back(Fr);
  P.Pc = 0;
}

std::vector<int64_t> Machine::popArgs(Process &P, uint32_t Argc) {
  assert(P.Stack.size() >= Argc && "operand stack underflow");
  std::vector<int64_t> Args(P.Stack.end() - Argc, P.Stack.end());
  P.Stack.resize(P.Stack.size() - Argc);
  return Args;
}

void Machine::fail(Process &P, RuntimeErrorKind Kind, StmtId Stmt) {
  P.Status = ProcStatus::Failed;
  P.Error = {Kind, P.Pid, Stmt};
}

//===----------------------------------------------------------------------===//
// Logging helpers
//===----------------------------------------------------------------------===//

LogRecord &Machine::appendRecord(Process &P, LogRecordKind Kind) {
  ProcessLog &PL = Log.Procs[P.Pid];
  LogRecord &R = PL.Records.emplace_back();
  R.Kind = Kind;
  if (Kind == LogRecordKind::Prelog)
    ++PL.PrelogCount;
  return R;
}

void Machine::captureVars(Process &P, const std::vector<VarId> &Vars,
                          LogRecord &Record) {
  Record.Vars.reserve(Record.Vars.size() + Vars.size());
  for (VarId Var : Vars) {
    const VarInfo &Info = Prog.Symbols->var(Var);
    VarValue Value;
    Value.Var = Var;
    uint32_t Count = Info.slotCount();
    const int64_t *Base = nullptr;
    switch (Info.Kind) {
    case VarKind::SharedGlobal:
      Base = &Shared[Info.Offset];
      break;
    case VarKind::PrivateGlobal:
      Base = &P.PrivateGlobals[Info.Offset];
      break;
    case VarKind::Param:
    case VarKind::Local:
      // USED/DEFINED sets only name variables of the function the e-block
      // lives in, so the top frame is the right one.
      Base = P.topSlots() + Info.Offset;
      break;
    }
    Value.Values.assign(Base, Base + Count);
    Record.Vars.push_back(std::move(Value));
  }
}

void Machine::emitSync(Process &P, SyncKind Kind, uint32_t Object,
                       StmtId Stmt, uint64_t &SeqOut, uint64_t Partner,
                       int64_t Value) {
  SeqOut = NextSyncSeq++;
  if (!logging())
    return;
  LogRecord &R = appendRecord(P, LogRecordKind::SyncEvent);
  R.Sync = Kind;
  R.Id = Object;
  R.Stmt = Stmt;
  R.Seq = SeqOut;
  R.PartnerSeq = Partner;
  R.Value = Value;
  // The internal edge ending at this synchronization node (Def 6.2).
  R.ReadSet.reserve(P.EdgeReads.size());
  P.EdgeReads.forEach([&R](unsigned S) { R.ReadSet.push_back(S); });
  R.WriteSet.reserve(P.EdgeWrites.size());
  P.EdgeWrites.forEach([&R](unsigned S) { R.WriteSet.push_back(S); });
  P.EdgeReads.clear();
  P.EdgeWrites.clear();
}

//===----------------------------------------------------------------------===//
// Tracing helpers (FullTrace mode)
//===----------------------------------------------------------------------===//

TraceEvent *Machine::openEventOf(Process &P) {
  uint32_t Idx = P.Frames.back().OpenEvent;
  if (Idx == InvalidId)
    return nullptr;
  return &Traces[P.Pid].Events[Idx];
}

void Machine::traceRead(Process &P, VarId Var, int64_t Value, int64_t Index) {
  if (TraceEvent *E = openEventOf(P))
    E->Reads.push_back({Var, Value, Index});
}

void Machine::traceWrite(Process &P, VarId Var, int64_t Value,
                         int64_t Index) {
  if (TraceEvent *E = openEventOf(P))
    E->Writes.push_back({Var, Value, Index});
}

//===----------------------------------------------------------------------===//
// Cold operations
//===----------------------------------------------------------------------===//

bool Machine::doSemP(Process &P, uint32_t Sem, StmtId Stmt) {
  Semaphore &S = Sems[Sem];
  if (S.Count > 0) {
    uint64_t Partner = NoPartner;
    if (S.PendingVEdge && S.PendingVPid != P.Pid)
      Partner = S.PendingVSeq;
    S.PendingVEdge = false;
    --S.Count;
    uint64_t Seq;
    emitSync(P, SyncKind::SemAcquire, Sem, Stmt, Seq, Partner);
    return true;
  }
  S.PendingVEdge = false;
  S.Waiters.push_back(P.Pid);
  P.Status = ProcStatus::BlockedSem;
  P.WaitObject = Sem;
  return false;
}

void Machine::doSemV(Process &P, uint32_t Sem, StmtId Stmt) {
  Semaphore &S = Sems[Sem];
  uint64_t VSeq;
  emitSync(P, SyncKind::SemSignal, Sem, Stmt, VSeq);
  if (!S.Waiters.empty()) {
    // Direct handoff: the V unblocks a blocked P (§6.2.1 rule 1).
    uint32_t WaiterPid = S.Waiters.front();
    S.Waiters.pop_front();
    Process &W = Procs[WaiterPid];
    uint64_t WSeq;
    // The waiter's P statement is the instruction before its (already
    // advanced) pc.
    StmtId WStmt = chunkOf(W).stmtAt(W.Pc - 1);
    emitSync(W, SyncKind::SemAcquire, Sem, WStmt, WSeq, VSeq);
    W.Status = ProcStatus::Runnable;
    W.WaitObject = InvalidId;
    S.PendingVEdge = false;
    return;
  }
  bool WasZero = S.Count == 0;
  ++S.Count;
  S.PendingVEdge = WasZero;
  S.PendingVSeq = VSeq;
  S.PendingVPid = P.Pid;
}

bool Machine::doSend(Process &P, uint32_t Chan, int64_t Value, StmtId Stmt) {
  Channel &C = Chans[Chan];
  uint64_t SendSeq;
  emitSync(P, SyncKind::ChanSend, Chan, Stmt, SendSeq);
  if (!C.BlockedReceivers.empty()) {
    // Hand the message straight to a waiting receiver.
    uint32_t ReceiverPid = C.BlockedReceivers.front();
    C.BlockedReceivers.pop_front();
    Process &R = Procs[ReceiverPid];
    uint64_t RecvSeq;
    StmtId RStmt = chunkOf(R).stmtAt(R.Pc - 1);
    emitSync(R, SyncKind::ChanRecv, Chan, RStmt, RecvSeq, SendSeq, Value);
    R.Stack.push_back(Value);
    R.Status = ProcStatus::Runnable;
    R.WaitObject = InvalidId;
    return true;
  }
  if (int64_t(C.Queue.size()) < C.Capacity) {
    C.Queue.push_back({Value, SendSeq});
    return true;
  }
  // Blocking send (Fig 6.1: node n3; the unblock event n5 follows the
  // matching receive).
  P.PendingSendValue = Value;
  P.PendingSendSeq = SendSeq;
  P.PendingSendStmt = Stmt;
  C.BlockedSenders.push_back(P.Pid);
  P.Status = ProcStatus::BlockedSend;
  P.WaitObject = Chan;
  return false;
}

bool Machine::doRecv(Process &P, uint32_t Chan, StmtId Stmt) {
  Channel &C = Chans[Chan];
  auto UnblockSender = [&](uint64_t RecvSeq, bool IntoQueue) {
    if (C.BlockedSenders.empty())
      return;
    uint32_t SenderPid = C.BlockedSenders.front();
    C.BlockedSenders.pop_front();
    Process &Sender = Procs[SenderPid];
    if (IntoQueue)
      C.Queue.push_back({Sender.PendingSendValue, Sender.PendingSendSeq});
    uint64_t USeq;
    emitSync(Sender, SyncKind::ChanSendUnblock, Chan, Sender.PendingSendStmt,
             USeq, RecvSeq);
    Sender.Status = ProcStatus::Runnable;
    Sender.WaitObject = InvalidId;
  };

  if (!C.Queue.empty()) {
    Message M = C.Queue.front();
    C.Queue.pop_front();
    uint64_t RecvSeq;
    emitSync(P, SyncKind::ChanRecv, Chan, Stmt, RecvSeq, M.SendSeq, M.Value);
    P.Stack.push_back(M.Value);
    UnblockSender(RecvSeq, /*IntoQueue=*/true);
    return true;
  }
  if (!C.BlockedSenders.empty()) {
    // Capacity-0 rendezvous: take the pending message directly.
    uint32_t SenderPid = C.BlockedSenders.front();
    Process &Sender = Procs[SenderPid];
    uint64_t RecvSeq;
    emitSync(P, SyncKind::ChanRecv, Chan, Stmt, RecvSeq,
             Sender.PendingSendSeq, Sender.PendingSendValue);
    P.Stack.push_back(Sender.PendingSendValue);
    UnblockSender(RecvSeq, /*IntoQueue=*/false);
    return true;
  }
  P.Status = ProcStatus::BlockedRecv;
  P.WaitObject = Chan;
  C.BlockedReceivers.push_back(P.Pid);
  return false;
}

void Machine::doSpawn(Process &P, uint32_t Func, uint32_t Argc, StmtId Stmt) {
  std::vector<int64_t> Args = popArgs(P, Argc);
  uint32_t ChildPid = uint32_t(Procs.size());
  uint64_t Seq;
  emitSync(P, SyncKind::SpawnChild, Func, Stmt, Seq, NoPartner,
           int64_t(ChildPid));
  spawnProcess(Func, std::move(Args), Seq);
}

bool Machine::doInput(Process &P, StmtId Stmt) {
  if (P.Inputs.empty()) {
    fail(P, RuntimeErrorKind::InputExhausted, Stmt);
    return false;
  }
  int64_t Value = P.Inputs.front();
  P.Inputs.pop_front();
  if (logging()) {
    LogRecord &R = appendRecord(P, LogRecordKind::Input);
    R.Value = Value;
  }
  P.Stack.push_back(Value);
  return true;
}

void Machine::doPrelog(Process &P, uint32_t EBlock) {
  if (Options.Mode != RunMode::Logging)
    return;
  LogRecord &R = appendRecord(P, LogRecordKind::Prelog);
  R.Id = EBlock;
  captureVars(P, Prog.eblock(EBlock).Used, R);
}

void Machine::doPostlog(Process &P, uint32_t EBlock, uint32_t Flags) {
  if (Options.Mode != RunMode::Logging)
    return;
  LogRecord &R = appendRecord(P, LogRecordKind::Postlog);
  R.Id = EBlock;
  R.Flags = Flags;
  if (Flags & PostlogExitsFunction) {
    assert(!P.Stack.empty() && "return value expected on stack");
    R.Value = P.Stack.back();
  }
  captureVars(P, Prog.eblock(EBlock).Defined, R);
}

void Machine::doUnitLog(Process &P, uint32_t Unit) {
  if (Options.Mode != RunMode::Logging)
    return;
  LogRecord &R = appendRecord(P, LogRecordKind::UnitLog);
  R.Id = Unit;
  captureVars(P, Prog.unit(Unit).SharedReads, R);
}

//===----------------------------------------------------------------------===//
// The interpreter
//===----------------------------------------------------------------------===//

template <RunMode Mode>
uint32_t Machine::runSlice(Process &P, uint32_t Budget) {
  PPD_DISPATCH_TABLE();
  constexpr bool DoLog = Mode != RunMode::Plain;
  constexpr bool DoTrace = Mode == RunMode::FullTrace;

  // Hot state lives in locals for the duration of the slice and is synced
  // back to the Process on every exit path. Slots caches the arena pointer
  // of the innermost frame; it is reloaded after Call and Ret (the arena
  // may reallocate, and the frame changes).
  auto BaseOf = [&](uint32_t Func) {
    const CompiledFunction &CF = Prog.func(Func);
    return (DoTrace ? CF.EmuDecoded : CF.ObjectDecoded).data();
  };
  const DecodedInstr *Base = BaseOf(P.Frames.back().Func);
  uint32_t Ip = P.Pc;
  int64_t *Slots = P.topSlots();
  std::vector<int64_t> &Stack = P.Stack;
  StmtId CurStmt = P.CurrentStmt;
  uint32_t Used = 0;

  auto Push = [&](int64_t V) { Stack.push_back(V); };
  auto Pop = [&]() {
    assert(!Stack.empty() && "operand stack underflow");
    int64_t V = Stack.back();
    Stack.pop_back();
    return V;
  };

  for (;;) {
    // Per-step prologue. Budget already folds in both the quantum and the
    // global step limit; a step is consumed even when it blocks, fails, or
    // stops at a breakpoint.
    if (Used == Budget)
      break;
    ++Used;
    const DecodedInstr &I = Base[Ip];
    if (I.Stmt != CurStmt) {
      CurStmt = I.Stmt;
      if (I.Stmt != InvalidId && !BreakSet.empty() && BreakSet.count(I.Stmt)) {
        BreakHit = true;
        BreakPid = P.Pid;
        BreakStmt = I.Stmt;
        goto Exit; // pc not advanced: the statement has not begun.
      }
    }
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
        if constexpr (DoTrace)
          traceRead(P, VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(StoreLocal) {
        int64_t V = Pop();
        Slots[I.A] = V;
        if constexpr (DoTrace)
          traceWrite(P, VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(LoadLocalElem) {
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          fail(P, RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        int64_t V = Slots[I.A + Idx];
        Push(V);
        if constexpr (DoTrace)
          traceRead(P, VarId(I.B), V, Idx);
        continue;
      }
      PPD_OP(StoreLocalElem) {
        int64_t V = Pop();
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          fail(P, RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        Slots[I.A + Idx] = V;
        if constexpr (DoTrace)
          traceWrite(P, VarId(I.B), V, Idx);
        continue;
      }
      PPD_OP(ZeroLocal) {
        std::fill_n(Slots + I.A, I.Imm, 0);
        if constexpr (DoTrace)
          traceWrite(P, VarId(I.B), 0, -1);
        continue;
      }

      PPD_OP(LoadShared) {
        int64_t V = Shared[uint32_t(I.A)];
        Push(V);
        if constexpr (DoTrace)
          traceRead(P, VarId(I.B), V, -1);
        if constexpr (DoLog)
          P.EdgeReads.insert(Prog.Symbols->var(VarId(I.B)).SharedIndex);
        continue;
      }
      PPD_OP(LoadSharedElem) {
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          fail(P, RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        int64_t V = Shared[uint32_t(I.A) + uint32_t(Idx)];
        Push(V);
        if constexpr (DoTrace)
          traceRead(P, VarId(I.B), V, Idx);
        if constexpr (DoLog)
          P.EdgeReads.insert(Prog.Symbols->var(VarId(I.B)).SharedIndex);
        continue;
      }
      PPD_OP(LoadPriv) {
        int64_t V = P.PrivateGlobals[uint32_t(I.A)];
        Push(V);
        if constexpr (DoTrace)
          traceRead(P, VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(LoadPrivElem) {
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          fail(P, RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        int64_t V = P.PrivateGlobals[uint32_t(I.A) + uint32_t(Idx)];
        Push(V);
        if constexpr (DoTrace)
          traceRead(P, VarId(I.B), V, Idx);
        continue;
      }

      PPD_OP(StoreShared) {
        int64_t V = Pop();
        Shared[uint32_t(I.A)] = V;
        if constexpr (DoTrace)
          traceWrite(P, VarId(I.B), V, -1);
        if constexpr (DoLog)
          P.EdgeWrites.insert(Prog.Symbols->var(VarId(I.B)).SharedIndex);
        continue;
      }
      PPD_OP(StoreSharedElem) {
        int64_t V = Pop();
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          fail(P, RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        Shared[uint32_t(I.A) + uint32_t(Idx)] = V;
        if constexpr (DoTrace)
          traceWrite(P, VarId(I.B), V, Idx);
        if constexpr (DoLog)
          P.EdgeWrites.insert(Prog.Symbols->var(VarId(I.B)).SharedIndex);
        continue;
      }
      PPD_OP(StorePriv) {
        int64_t V = Pop();
        P.PrivateGlobals[uint32_t(I.A)] = V;
        if constexpr (DoTrace)
          traceWrite(P, VarId(I.B), V, -1);
        continue;
      }
      PPD_OP(StorePrivElem) {
        int64_t V = Pop();
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          fail(P, RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        P.PrivateGlobals[uint32_t(I.A) + uint32_t(Idx)] = V;
        if constexpr (DoTrace)
          traceWrite(P, VarId(I.B), V, Idx);
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
          fail(P, RuntimeErrorKind::DivideByZero, I.Stmt);
          goto Exit;
        }
        Stack.back() = wrapDiv(Stack.back(), B);
        continue;
      }
      PPD_OP(Mod) {
        int64_t B = Pop();
        if (B == 0) {
          fail(P, RuntimeErrorKind::ModuloByZero, I.Stmt);
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
        if constexpr (DoTrace) {
          if (TraceEvent *E = openEventOf(P)) {
            E->IsPredicate = true;
            E->BranchTaken = Cond != 0;
          }
        }
        bool Taken = I.Opcode == DOp::JumpIfFalse ? Cond == 0 : Cond != 0;
        if (Taken)
          Ip = uint32_t(I.A);
        continue;
      }
      PPD_OP(JumpIfCmp) {
        // Fused Cmp + JumpIf. The compare is this step; the branch is the
        // next one and only executes if the budget still has room —
        // otherwise the compare result is pushed and the pc stays on the
        // branch's own (still fully decoded) slot, so preemption points do
        // not depend on fusion.
        int64_t B = Pop(), A = Pop();
        int64_t Cond = evalCmp(CmpKind(I.Sub >> 1), A, B);
        if (Used != Budget) {
          ++Used;
          if constexpr (DoTrace) {
            if (TraceEvent *E = openEventOf(P)) {
              E->IsPredicate = true;
              E->BranchTaken = Cond != 0;
            }
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
        if (Used != Budget) {
          ++Used;
          ++Ip; // skip the second half's slot
          Slots[I.A] = I.Imm;
          if constexpr (DoTrace)
            traceWrite(P, VarId(I.B), I.Imm, -1);
        } else {
          Push(I.Imm);
        }
        continue;
      }

      PPD_OP(Call) {
        if (P.Frames.size() >= 4096) {
          fail(P, RuntimeErrorKind::StackOverflow, I.Stmt);
          goto Exit;
        }
        uint32_t Argc = uint32_t(I.B);
        const CompiledFunction &Callee = Prog.func(uint32_t(I.A));
        assert(Argc == Callee.NumParams && "arity checked by sema");
        assert(Stack.size() >= Argc && "operand stack underflow");
        Frame Fr;
        Fr.Func = uint32_t(I.A);
        Fr.ReturnPc = Ip;
        Fr.StackBase = uint32_t(Stack.size() - Argc);
        Fr.SlotBase = uint32_t(P.SlotArena.size());
        Fr.SlotCount = Callee.FrameSize;
        P.SlotArena.resize(Fr.SlotBase + Callee.FrameSize, 0);
        std::copy(Stack.end() - Argc, Stack.end(),
                  P.SlotArena.begin() + Fr.SlotBase);
        Stack.resize(Stack.size() - Argc);
        P.Frames.push_back(Fr);
        Base = BaseOf(Fr.Func);
        Ip = 0;
        Slots = P.SlotArena.data() + Fr.SlotBase;
        continue;
      }
      PPD_OP(Ret) {
        int64_t Result = Pop();
        Frame Top = P.Frames.back();
        P.Frames.pop_back();
        P.SlotArena.resize(Top.SlotBase);
        Stack.resize(Top.StackBase);
        if (P.Frames.empty()) {
          if constexpr (DoLog) {
            uint64_t Seq;
            emitSync(P, SyncKind::ProcEnd, 0, I.Stmt, Seq);
          }
          P.Status = ProcStatus::Done;
          goto Exit;
        }
        Push(Result);
        Ip = Top.ReturnPc;
        Base = BaseOf(P.Frames.back().Func);
        Slots = P.topSlots();
        continue;
      }
      PPD_OP(CallBuiltin) {
        if (!applyBuiltin(Builtin(I.A), Stack)) {
          fail(P, RuntimeErrorKind::NegativeSqrt, I.Stmt);
          goto Exit;
        }
        continue;
      }

      PPD_OP(SemP) {
        if (!doSemP(P, uint32_t(I.A), I.Stmt))
          goto Exit;
        continue;
      }
      PPD_OP(SemV) {
        doSemV(P, uint32_t(I.A), I.Stmt);
        continue;
      }
      PPD_OP(SendCh) {
        if (!doSend(P, uint32_t(I.A), Pop(), I.Stmt))
          goto Exit;
        continue;
      }
      PPD_OP(RecvCh) {
        if (!doRecv(P, uint32_t(I.A), I.Stmt))
          goto Exit;
        continue;
      }
      PPD_OP(SpawnProc) {
        doSpawn(P, uint32_t(I.A), uint32_t(I.B), I.Stmt);
        continue;
      }

      PPD_OP(PrintVal) {
        int64_t Value = Pop();
        Log.Output.push_back({P.Pid, Value, I.Stmt});
        continue;
      }
      PPD_OP(InputVal) {
        if (!doInput(P, I.Stmt))
          goto Exit;
        continue;
      }

      PPD_OP(Prelog) {
        if constexpr (Mode == RunMode::Logging)
          doPrelog(P, uint32_t(I.A));
        continue;
      }
      PPD_OP(Postlog) {
        if constexpr (Mode == RunMode::Logging)
          doPostlog(P, uint32_t(I.A), uint32_t(I.B));
        continue;
      }
      PPD_OP(UnitLog) {
        if constexpr (Mode == RunMode::Logging)
          doUnitLog(P, uint32_t(I.A));
        continue;
      }

      // The trace instructions exist only in the emulation package, which
      // only FullTrace runs. They refund their step: a FullTrace run then
      // preempts exactly where Plain and Logging runs of the same seed do.
      PPD_OP(TraceStmt) {
        if constexpr (DoTrace) {
          --Used;
          TraceEvent &E = Traces[P.Pid].emplace();
          E.Pid = P.Pid;
          E.Stmt = StmtId(I.A);
          P.Frames.back().OpenEvent = E.Index;
        }
        continue;
      }
      PPD_OP(TraceCallBegin) {
        if constexpr (DoTrace) {
          --Used;
          TraceEvent E;
          E.Kind = TraceEventKind::CallBegin;
          E.Pid = P.Pid;
          E.Stmt = StmtId(I.B);
          E.Callee = uint32_t(I.A);
          uint32_t Argc = Prog.func(uint32_t(I.A)).NumParams;
          assert(Stack.size() >= Argc && "call arguments missing");
          E.Args.assign(Stack.end() - Argc, Stack.end());
          Traces[P.Pid].append(std::move(E));
        }
        continue;
      }
      PPD_OP(TraceCallEnd) {
        if constexpr (DoTrace) {
          --Used;
          TraceEvent E;
          E.Kind = TraceEventKind::CallEnd;
          E.Pid = P.Pid;
          E.Callee = uint32_t(I.A);
          E.Value = Stack.back();
          Traces[P.Pid].append(std::move(E));
        }
        continue;
      }

      PPD_OP(Halt) {
        P.Status = ProcStatus::Done;
        goto Exit;
      }
    }
    PPD_END_DISPATCH();
    assert(false && "unknown opcode");
  }

Exit:
  P.Pc = Ip;
  P.CurrentStmt = CurStmt;
  return Used;
}

//===----------------------------------------------------------------------===//
// The scheduler
//===----------------------------------------------------------------------===//

RunResult Machine::run() {
  RunResult Result;
  // Any non-completed outcome freezes the machine mid-flight; Stop markers
  // let replay halt each process exactly where it actually stopped instead
  // of running ahead deterministically.
  auto Freeze = [&](RunResult::Status Outcome) {
    Result.Outcome = Outcome;
    Result.Steps = Steps;
    if (logging())
      for (Process &P : Procs) {
        if (P.Status == ProcStatus::Done)
          continue;
        // The failed process gets no marker: its log already ends at the
        // failure, which replay re-derives (the flowback root).
        if (P.Status != ProcStatus::Failed) {
          LogRecord &R = Log.Procs[P.Pid].Records.emplace_back();
          R.Kind = LogRecordKind::Stop;
          // Which statement the process was in or about to enter: lets
          // replay stop at the right occurrence, not merely at the right
          // record. A preempted process may sit on the first instruction
          // of its next statement; that statement, not the finished one,
          // is where replay must stop.
          R.Stmt = P.Status == ProcStatus::Runnable
                       ? chunkOf(P).stmtAt(P.Pc)
                       : P.CurrentStmt;
        }
        // Shared accesses since the last sync node would otherwise vanish
        // with the process: flush them as a terminal sync node so §6.4
        // race detection sees the unterminated final edge. It is the last
        // record, after the Stop marker or the failure, so replay halts
        // before ever reaching it.
        if (!P.EdgeReads.empty() || !P.EdgeWrites.empty()) {
          uint64_t Seq;
          emitSync(P, SyncKind::Stopped, 0, P.CurrentStmt, Seq, NoPartner);
        }
      }
    return Result;
  };

  for (;;) {
    if (RoundHook)
      RoundHook(*this);
    if (BreakHit) {
      Result.BreakPid = BreakPid;
      Result.BreakStmt = BreakStmt;
      return Freeze(RunResult::Status::Breakpoint);
    }
    // A failure freezes the machine: the program "halts due to an error"
    // and the debugging phase takes over (§3.2.2).
    for (const Process &P : Procs)
      if (P.Status == ProcStatus::Failed) {
        Result.Error = P.Error;
        return Freeze(RunResult::Status::Failed);
      }

    Runnable.clear();
    bool AnyBlocked = false;
    for (const Process &P : Procs) {
      if (P.Status == ProcStatus::Runnable)
        Runnable.push_back(P.Pid);
      else if (P.Status != ProcStatus::Done)
        AnyBlocked = true;
    }

    if (Runnable.empty()) {
      if (!AnyBlocked) {
        Result.Outcome = RunResult::Status::Completed;
        Result.Steps = Steps;
        return Result;
      }
      for (const Process &P : Procs)
        if (P.Status == ProcStatus::BlockedSem ||
            P.Status == ProcStatus::BlockedSend ||
            P.Status == ProcStatus::BlockedRecv)
          Result.Deadlock.Blocked.push_back(
              {P.Pid, P.Status, P.WaitObject});
      return Freeze(RunResult::Status::Deadlock);
    }

    uint32_t Pid = Runnable[SchedRng.nextBelow(Runnable.size())];
    if (Steps >= Options.MaxSteps)
      return Freeze(RunResult::Status::StepLimit);
    // One bound for the whole slice: the quantum and the global step
    // budget collapse into a single per-slice budget, checked once per
    // step inside the threaded loop.
    uint32_t Budget = uint32_t(
        std::min<uint64_t>(Options.Quantum, Options.MaxSteps - Steps));
    switch (Options.Mode) {
    case RunMode::Plain:
      Steps += runSlice<RunMode::Plain>(Procs[Pid], Budget);
      break;
    case RunMode::Logging:
      Steps += runSlice<RunMode::Logging>(Procs[Pid], Budget);
      break;
    case RunMode::FullTrace:
      Steps += runSlice<RunMode::FullTrace>(Procs[Pid], Budget);
      break;
    }
  }
}
