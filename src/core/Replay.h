//===- core/Replay.h - Emulation-package replay -----------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay engine: executes one log interval through the emulation
/// package to regenerate the fine-grained trace the dynamic graph needs —
/// the "need-to-generate" half of incremental tracing (§3.1, §5.3).
///
/// Replay is strictly single-process. The log supplies everything the
/// original environment did:
///   * the interval's prelog seeds the frame and the globals (USED set),
///   * unit logs re-seed shared variables at synchronization-unit entries
///     (§5.5) — valid when the execution instance is race-free,
///   * input and receive records supply external values,
///   * P/V/send/spawn become no-ops (their records are consumed to keep
///     the cursor aligned),
///   * calls to logged callees are *not* re-executed: the nested
///     interval's postlog(s) are applied instead (Fig 5.2), producing a
///     CallSkipped sub-graph event.
///
/// When the interval completed (has a postlog), the replayed final values
/// are verified against the logged postlog: mismatches indicate the logs
/// were invalidated — on a race-free instance there are none (a property
/// the test suite asserts across schedules).
///
/// What-if overrides (§5.7) let the user change a variable's value at a
/// chosen event and observe downstream effects; if the modified run's
/// control flow departs from the logged record sequence the engine
/// switches to lenient synthesis and flags Diverged.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_CORE_REPLAY_H
#define PPD_CORE_REPLAY_H

#include "compiler/CompiledProgram.h"
#include "log/ExecutionLog.h"
#include "trace/TraceEvent.h"
#include "vm/Machine.h"

#include <string>
#include <vector>

namespace ppd {

/// Unused; kept only for perfbench until its JIT per-layer rows go.
enum class ReplayEngineKind : uint8_t { Jit, Decoded };

/// A §5.7 experiment: before the event numbered AtEvent is executed, set
/// Var (element Index, or -1 for scalars) to Value.
struct ReplayOverride {
  uint32_t AtEvent = 0;
  VarId Var = InvalidId;
  int64_t Index = -1;
  int64_t Value = 0;
};

struct ReplayOptions {
  std::vector<ReplayOverride> Overrides;
  uint64_t MaxInstructions = 50'000'000;
  /// Ignored; set only by perfbench until its JIT per-layer rows go.
  ReplayEngineKind Engine = ReplayEngineKind::Jit;
};

/// A replayed value that disagrees with the logged postlog.
struct ReplayMismatch {
  VarId Var = InvalidId;
  int64_t Index = 0;
  int64_t Expected = 0;
  int64_t Actual = 0;
};

struct ReplayResult {
  TraceBuffer Events;
  /// False only on internal divergence (a PPD bug or corrupted log).
  bool Ok = false;
  /// The interval or one of its records names an e-block or variable the
  /// program does not have: the log is corrupt. Ok is false.
  bool BadRecord = false;
  /// The log ended inside the interval (execution stopped there).
  bool Partial = false;
  /// Replay re-hit the original failure; Failure names it. The last event
  /// in Events is the failing statement — the flowback root.
  bool FailureHit = false;
  RuntimeError Failure;
  /// What-if replays only: control flow left the logged path.
  bool Diverged = false;
  std::string Error;
  /// Postlog verification (closed, non-overridden intervals only).
  std::vector<ReplayMismatch> PostlogMismatches;
  uint64_t Instructions = 0;

  /// Final shadow state, for inspection and what-if comparison.
  std::vector<int64_t> Shared;
  std::vector<int64_t> PrivateGlobals;
  std::vector<int64_t> RootSlots;
  std::vector<OutputRecord> Output;
  bool HasReturn = false;
  int64_t ReturnValue = 0;
};

class ReplayEngine {
public:
  explicit ReplayEngine(const CompiledProgram &Prog) : Prog(Prog) {}

  /// Replays the given interval of process \p Pid.
  ReplayResult replay(const ExecutionLog &Log, uint32_t Pid,
                      const LogInterval &Interval,
                      const ReplayOptions &Options = {}) const;

  /// Same, over one process's log directly — the paged path, where the
  /// section arrives as a buffer-pool pin rather than a whole
  /// ExecutionLog. Replay only ever reads the replayed process's records,
  /// so both overloads produce identical results.
  ReplayResult replay(const ProcessLog &Proc, uint32_t Pid,
                      const LogInterval &Interval,
                      const ReplayOptions &Options = {}) const;

private:
  const CompiledProgram &Prog;
};

} // namespace ppd

#endif // PPD_CORE_REPLAY_H
