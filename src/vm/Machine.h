//===- vm/Machine.h - Shared-memory multiprocessor simulator ----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-phase substrate: a simulated shared-memory multiprocessor
/// (the paper's SMMP) running the compiled bytecode. Processes share the
/// `shared` global segment, synchronize through counting semaphores (P/V)
/// and FIFO message channels, and are created with `spawn`.
///
/// Scheduling is preemptive with an instruction-granular quantum and a
/// seeded PRNG: one seed is one "execution instance" in the paper's sense
/// (§6.4) — fully reproducible here, while different seeds exercise
/// different interleavings. PPD itself never relies on re-running a seed:
/// the debugging phase works exclusively from the log, which is the
/// paper's central claim.
///
/// Run modes:
///  * Plain      — instrumentation instructions are no-ops (baseline),
///  * Logging    — the execution phase proper: prelogs/postlogs/unit logs,
///                 input and sync-event records, per-edge shared
///                 READ/WRITE sets,
///  * FullTrace  — the Balzer-style strawman of experiment E2: run the
///                 emulation package for every process and record a
///                 TraceEvent per statement, alongside the normal log.
///                 Trace instructions cost no quantum, so a FullTrace run
///                 interleaves exactly like the Plain and Logging runs of
///                 the same seed: its traces are the §5.5 reference that
///                 replayed intervals must reproduce.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_VM_MACHINE_H
#define PPD_VM_MACHINE_H

#include "compiler/CompiledProgram.h"
#include "log/ExecutionLog.h"
#include "support/Rng.h"
#include "support/VarSet.h"
#include "trace/TraceEvent.h"

#include <deque>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace ppd {

enum class RunMode { Plain, Logging, FullTrace };

enum class ProcStatus : uint8_t {
  Runnable,
  BlockedSem,
  BlockedSend,
  BlockedRecv,
  Done,
  Failed,
};

enum class RuntimeErrorKind : uint8_t {
  None,
  DivideByZero,
  ModuloByZero,
  IndexOutOfBounds,
  NegativeSqrt,
  InputExhausted,
  StackOverflow,
};

const char *runtimeErrorName(RuntimeErrorKind Kind);

/// A process failure: the paper's externally visible *failure* that starts
/// a debugging session. Stmt is the statement whose execution failed — the
/// root of the flowback analysis.
struct RuntimeError {
  RuntimeErrorKind Kind = RuntimeErrorKind::None;
  uint32_t Pid = 0;
  StmtId Stmt = InvalidId;

  std::string str() const;
};

struct Frame {
  uint32_t Func = 0;
  uint32_t ReturnPc = 0;
  uint32_t StackBase = 0;
  /// The frame's local slots live in the slot arena of its process (or of
  /// the replayer) at [SlotBase, SlotBase + SlotCount) — call/return only
  /// moves the arena's end, so steady-state calls never allocate.
  uint32_t SlotBase = 0;
  uint32_t SlotCount = 0;
  /// Open trace event of this frame (FullTrace mode and replay), or
  /// InvalidId.
  uint32_t OpenEvent = InvalidId;
};

struct Process {
  uint32_t Pid = 0;
  ProcStatus Status{ProcStatus::Runnable};
  uint32_t Pc = 0;
  std::vector<Frame> Frames;
  std::vector<int64_t> Stack;
  /// Backing store for every frame's local slots (grows at Call, shrinks
  /// at Ret; capacity is retained across both).
  std::vector<int64_t> SlotArena;
  std::vector<int64_t> PrivateGlobals;
  std::deque<int64_t> Inputs;

  /// Local slots of the innermost frame.
  int64_t *topSlots() { return SlotArena.data() + Frames.back().SlotBase; }
  const int64_t *topSlots() const {
    return SlotArena.data() + Frames.back().SlotBase;
  }

  // Shared accesses on the current internal edge (since the last sync
  // node), as SharedIndex bits.
  BitVarSet EdgeReads;
  BitVarSet EdgeWrites;

  // Blocking state.
  uint32_t WaitObject = InvalidId; ///< semaphore or channel id.
  int64_t PendingSendValue = 0;
  uint64_t PendingSendSeq = 0;
  StmtId PendingSendStmt = InvalidId;

  /// Statement whose instructions are currently executing (breakpoints
  /// fire on the transition into a new statement).
  StmtId CurrentStmt = InvalidId;

  RuntimeError Error;
};

struct MachineOptions {
  uint64_t Seed = 1;
  /// Instructions between involuntary preemptions.
  uint32_t Quantum = 8;
  RunMode Mode = RunMode::Logging;
  /// Global step budget; exceeding it stops the run with StepLimit.
  uint64_t MaxSteps = 100'000'000;
  /// Input stream per process, indexed by pid (spawn order; pid 0 = main).
  std::vector<std::vector<int64_t>> ProcessInputs;
  /// Statements that halt the whole machine when any process reaches them
  /// — the paper's "user intervention" entry into the debugging phase.
  std::vector<StmtId> Breakpoints;
};

struct DeadlockInfo {
  struct WaitEdge {
    uint32_t Pid;
    ProcStatus Status;
    uint32_t Object; ///< semaphore/channel id.
  };
  std::vector<WaitEdge> Blocked;
};

struct RunResult {
  enum class Status { Completed, Deadlock, Failed, StepLimit, Breakpoint };
  Status Outcome = Status::Completed;
  RuntimeError Error;       ///< valid when Outcome == Failed.
  DeadlockInfo Deadlock;    ///< valid when Outcome == Deadlock.
  /// Breakpoint hit (Outcome == Breakpoint): which process, where.
  uint32_t BreakPid = InvalidId;
  StmtId BreakStmt = InvalidId;
  uint64_t Steps = 0;
};

class Machine {
public:
  Machine(const CompiledProgram &Prog, MachineOptions Options);

  /// Runs to completion, deadlock, failure, or the step budget.
  RunResult run();

  /// Installs a hook invoked once per scheduler round, before the next
  /// process is picked. The streaming tracer uses it to seal and ship
  /// completed log sections while the program is still running; the hook
  /// may block (credit backpressure) but must not mutate the machine
  /// beyond reading log().
  void onRound(std::function<void(Machine &)> Hook) {
    RoundHook = std::move(Hook);
  }

  const ExecutionLog &log() const { return Log; }
  ExecutionLog takeLog() { return std::move(Log); }
  const std::vector<OutputRecord> &output() const { return Log.Output; }
  const std::deque<Process> &processes() const { return Procs; }
  const std::vector<int64_t> &sharedMemory() const { return Shared; }
  /// FullTrace mode: per-process event streams.
  const std::vector<TraceBuffer> &traces() const { return Traces; }

private:
  struct Semaphore {
    int64_t Count = 0;
    std::deque<uint32_t> Waiters;
    /// Set when a V raised the count 0→1; cleared by the next operation on
    /// this semaphore (paper §6.2.1 rule 2: "the P operation is the next
    /// semaphore operation on the same semaphore variable").
    bool PendingVEdge = false;
    uint64_t PendingVSeq = 0;
    uint32_t PendingVPid = 0;
  };

  struct Message {
    int64_t Value;
    uint64_t SendSeq;
  };

  struct Channel {
    int64_t Capacity = 0;
    std::deque<Message> Queue;
    std::deque<uint32_t> BlockedSenders;
    std::deque<uint32_t> BlockedReceivers;
  };

  const Chunk &chunkOf(const Process &P) const;
  bool logging() const { return Options.Mode != RunMode::Plain; }
  bool tracing() const { return Options.Mode == RunMode::FullTrace; }

  uint32_t spawnProcess(uint32_t Func, std::vector<int64_t> Args,
                        uint64_t ParentSpawnSeq);
  /// The live policy of the one handler set (vm/Interp.h).
  template <RunMode Mode> struct Slice;
  /// Runs up to \p Budget steps of \p P through the handler set under
  /// the live policy for \p Mode; returns the steps consumed. A step is
  /// one base instruction (a fused pair is two); the emulation package's
  /// trace instructions cost none.
  template <RunMode Mode> uint32_t runSlice(Process &P, uint32_t Budget);
  /// The one writer of Process::Status: keeps Runnable, NumBlocked and
  /// FailedPid current.
  void setStatus(Process &P, ProcStatus Status);
  /// Whether Runnable and NumBlocked equal a scan of Procs (asserted once
  /// per round in builds with assertions).
  bool schedulerStateMatchesScan() const;
  void fail(Process &P, RuntimeErrorKind Kind, StmtId Stmt);

  // Cold operations, kept out of the hot loop. The bool-returning ones
  // yield false when the process stops running here (blocked or failed).
  // The three log operations run in Logging mode only.
  bool doSemP(Process &P, uint32_t Sem, StmtId Stmt);
  void doSemV(Process &P, uint32_t Sem, StmtId Stmt);
  bool doSend(Process &P, uint32_t Chan, int64_t Value, StmtId Stmt);
  bool doRecv(Process &P, uint32_t Chan, StmtId Stmt);
  void doSpawn(Process &P, uint32_t Func, uint32_t Argc, StmtId Stmt);
  bool doInput(Process &P, StmtId Stmt);
  void doPrelog(Process &P, uint32_t EBlock);
  void doPostlog(Process &P, uint32_t EBlock, uint32_t Flags);
  void doUnitLog(Process &P, uint32_t Unit);

  void pushFrame(Process &P, uint32_t Func, std::vector<int64_t> Args,
                 uint32_t ReturnPc);
  std::vector<int64_t> popArgs(Process &P, uint32_t Argc);

  // Logging helpers.
  LogRecord &appendRecord(Process &P, LogRecordKind Kind);
  void captureVars(Process &P, const std::vector<VarId> &Vars,
                   LogRecord &Record);
  void emitSync(Process &P, SyncKind Kind, uint32_t Object, StmtId Stmt,
                uint64_t &SeqOut, uint64_t Partner = NoPartner,
                int64_t Value = 0);

  const CompiledProgram &Prog;
  MachineOptions Options;
  Rng SchedRng;
  std::set<StmtId> BreakSet;
  bool BreakHit = false;
  uint32_t BreakPid = InvalidId;
  StmtId BreakStmt = InvalidId;

  std::vector<int64_t> Shared;
  std::vector<Semaphore> Sems;
  std::vector<Channel> Chans;
  /// deque: processes are spawned mid-step and references must stay valid.
  std::deque<Process> Procs;
  /// Pids of the Runnable processes, ascending: what a scan of Procs
  /// would yield, kept current where a status changes (setStatus) or a
  /// process is spawned, so a scheduler round does not scan.
  std::vector<uint32_t> Runnable;
  /// Processes blocked on a semaphore or a channel.
  uint32_t NumBlocked = 0;
  /// The failed process, or InvalidId. There is at most one: only the
  /// running process can fail, and the next round freezes the machine.
  uint32_t FailedPid = InvalidId;
  std::vector<TraceBuffer> Traces;
  ExecutionLog Log;
  uint64_t NextSyncSeq = 0;
  uint64_t Steps = 0;
  std::function<void(Machine &)> RoundHook;
};

} // namespace ppd

#endif // PPD_VM_MACHINE_H
