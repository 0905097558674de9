//===- vm/Machine.cpp -----------------------------------------------------===//
//
// Part of PPD. See Machine.h.
//
// A slice runs the one handler set (vm/Interp.h) under the live policy
// below, specialized per run mode. It charges one step per base
// instruction: a fused pair is two steps and splits at the slice budget,
// and the emulation package's trace instructions are free. Plain, Logging
// and FullTrace runs of one seed therefore preempt at the same points and
// interleave identically, which is what lets a FullTrace run serve as the
// §5.5 reference for replay (testing/DiffOracles.cpp, spec/trace).
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "vm/Interp.h"

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
  // A zero quantum would run empty slices forever: Steps never grows.
  assert(this->Options.Quantum >= 1 && "quantum must be at least 1");
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
  // A new process starts Runnable with the largest pid yet.
  Runnable.push_back(Pid);

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

static bool isBlocked(ProcStatus Status) {
  return Status == ProcStatus::BlockedSem ||
         Status == ProcStatus::BlockedSend ||
         Status == ProcStatus::BlockedRecv;
}

void Machine::setStatus(Process &P, ProcStatus Status) {
  bool WasRunnable = P.Status == ProcStatus::Runnable;
  if (WasRunnable != (Status == ProcStatus::Runnable)) {
    auto It = std::lower_bound(Runnable.begin(), Runnable.end(), P.Pid);
    if (WasRunnable)
      Runnable.erase(It);
    else
      Runnable.insert(It, P.Pid);
  }
  NumBlocked += isBlocked(Status);
  NumBlocked -= isBlocked(P.Status);
  if (Status == ProcStatus::Failed)
    FailedPid = P.Pid;
  P.Status = Status;
}

bool Machine::schedulerStateMatchesScan() const {
  std::vector<uint32_t> Scan;
  uint32_t Blocked = 0;
  for (const Process &P : Procs) {
    if (P.Status == ProcStatus::Runnable)
      Scan.push_back(P.Pid);
    Blocked += isBlocked(P.Status);
  }
  return Scan == Runnable && Blocked == NumBlocked;
}

void Machine::fail(Process &P, RuntimeErrorKind Kind, StmtId Stmt) {
  setStatus(P, ProcStatus::Failed);
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
  setStatus(P, ProcStatus::BlockedSem);
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
    setStatus(W, ProcStatus::Runnable);
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
    setStatus(R, ProcStatus::Runnable);
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
  setStatus(P, ProcStatus::BlockedSend);
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
    setStatus(Sender, ProcStatus::Runnable);
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
  setStatus(P, ProcStatus::BlockedRecv);
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
  LogRecord &R = appendRecord(P, LogRecordKind::Prelog);
  R.Id = EBlock;
  captureVars(P, Prog.eblock(EBlock).Used, R);
}

void Machine::doPostlog(Process &P, uint32_t EBlock, uint32_t Flags) {
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
  LogRecord &R = appendRecord(P, LogRecordKind::UnitLog);
  R.Id = Unit;
  captureVars(P, Prog.unit(Unit).SharedReads, R);
}

//===----------------------------------------------------------------------===//
// The live policy
//===----------------------------------------------------------------------===//

/// Runs the object code (the emulation package under FullTrace) on the
/// simulated machine: synchronization and I/O act on the machine, and
/// Logging runs write the log.
template <RunMode Mode> struct Machine::Slice {
  Machine &M;
  Process &P;

  static constexpr bool Tracing = Mode == RunMode::FullTrace;
  /// Trace instructions refund their step: a FullTrace run then preempts
  /// exactly where Plain and Logging runs of the same seed do.
  static constexpr bool FreeTrace = true;
  static constexpr bool DoLog = Mode != RunMode::Plain;
  static constexpr bool Logging = Mode == RunMode::Logging;

  const CompiledProgram &prog() const { return M.Prog; }
  std::vector<Frame> &frames() const { return P.Frames; }
  std::vector<int64_t> &slotArena() const { return P.SlotArena; }
  std::vector<int64_t> &stack() const { return P.Stack; }
  int64_t *shared() const { return M.Shared.data(); }
  int64_t *priv() const { return P.PrivateGlobals.data(); }
  TraceBuffer &trace() const { return M.Traces[P.Pid]; }
  uint32_t pid() const { return P.Pid; }
  uint32_t logCursor() const { return 0; }
  StmtId currentStmt() const { return P.CurrentStmt; }

  uint64_t outOfBudget() { return 0; }
  bool stopsAt(StmtId Stmt) {
    return Stmt != InvalidId && !M.BreakSet.empty() && breakAt(M, P, Stmt);
  }
  /// The set lookup stays out of line: it would otherwise hold registers
  /// the loop needs on every step.
  [[gnu::noinline]] static bool breakAt(Machine &M, Process &P,
                                        StmtId Stmt) {
    if (!M.BreakSet.count(Stmt))
      return false;
    M.BreakHit = true;
    M.BreakPid = P.Pid;
    M.BreakStmt = Stmt;
    return true;
  }
  void exit(uint32_t Ip, StmtId Stmt) {
    P.Pc = Ip;
    P.CurrentStmt = Stmt;
  }

  void sharedRead(VarId Var) {
    if constexpr (DoLog)
      P.EdgeReads.insert(M.Prog.Symbols->var(Var).SharedIndex);
  }
  void sharedWrite(VarId Var) {
    if constexpr (DoLog)
      P.EdgeWrites.insert(M.Prog.Symbols->var(Var).SharedIndex);
  }
  void fail(RuntimeErrorKind Kind, StmtId Stmt) { M.fail(P, Kind, Stmt); }

  Next call(const DecodedInstr &I) {
    if (P.Frames.size() < 4096)
      return Next::Run;
    M.fail(P, RuntimeErrorKind::StackOverflow, I.Stmt);
    return Next::Stop;
  }
  void returnFromRoot(const DecodedInstr &I, int64_t) {
    Frame Top = P.Frames.back();
    P.Frames.pop_back();
    P.SlotArena.resize(Top.SlotBase);
    P.Stack.resize(Top.StackBase);
    if constexpr (DoLog) {
      uint64_t Seq;
      M.emitSync(P, SyncKind::ProcEnd, 0, I.Stmt, Seq);
    }
    M.setStatus(P, ProcStatus::Done);
  }

  bool semP(const DecodedInstr &I) {
    return M.doSemP(P, uint32_t(I.A), I.Stmt);
  }
  bool semV(const DecodedInstr &I) {
    M.doSemV(P, uint32_t(I.A), I.Stmt);
    return true;
  }
  bool send(const DecodedInstr &I, int64_t Value) {
    return M.doSend(P, uint32_t(I.A), Value, I.Stmt);
  }
  bool recv(const DecodedInstr &I) {
    return M.doRecv(P, uint32_t(I.A), I.Stmt);
  }
  bool spawn(const DecodedInstr &I) {
    M.doSpawn(P, uint32_t(I.A), uint32_t(I.B), I.Stmt);
    return true;
  }
  void print(int64_t Value, StmtId Stmt) {
    M.Log.Output.push_back({P.Pid, Value, Stmt});
  }
  bool input(const DecodedInstr &I) { return M.doInput(P, I.Stmt); }

  bool prelog(const DecodedInstr &I) {
    if constexpr (Logging)
      M.doPrelog(P, uint32_t(I.A));
    return true;
  }
  bool postlog(const DecodedInstr &I) {
    if constexpr (Logging)
      M.doPostlog(P, uint32_t(I.A), uint32_t(I.B));
    return true;
  }
  bool unitLog(const DecodedInstr &I) {
    if constexpr (Logging)
      M.doUnitLog(P, uint32_t(I.A));
    return true;
  }

  bool beginStmt(StmtId) { return true; }
  Next traceCall(uint32_t, bool) { return Next::Run; }
  void halt() { M.setStatus(P, ProcStatus::Done); }
};

template <RunMode Mode>
uint32_t Machine::runSlice(Process &P, uint32_t Budget) {
  return uint32_t(interpret(Slice<Mode>{*this, P}, P.Pc, Budget));
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
    if (FailedPid != InvalidId) {
      Result.Error = Procs[FailedPid].Error;
      return Freeze(RunResult::Status::Failed);
    }

    // Runnable is current (setStatus), so a round costs no scan of Procs.
    assert(schedulerStateMatchesScan() && "runnable set out of date");
    if (Runnable.empty()) {
      if (NumBlocked == 0) {
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
