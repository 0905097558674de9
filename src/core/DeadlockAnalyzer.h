//===- core/DeadlockAnalyzer.h - Deadlock cause analysis --------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "The parallel dynamic graph can also help the user analyze the causes
/// of deadlocks" (§6). When the VM reports a deadlock, this analyzer
/// reconstructs, from the execution log, which process holds which
/// semaphore (acquires minus signals) and builds the wait-for graph over
/// the blocked processes; a cycle is reported as the deadlock's cause.
/// Channel waits are reported descriptively (a blocked sender/receiver has
/// no single "holder").
///
//===----------------------------------------------------------------------===//

#ifndef PPD_CORE_DEADLOCKANALYZER_H
#define PPD_CORE_DEADLOCKANALYZER_H

#include "compiler/CompiledProgram.h"
#include "log/ExecutionLog.h"
#include "vm/Machine.h"

#include <string>
#include <vector>

namespace ppd {

struct DeadlockReport {
  struct Wait {
    uint32_t Pid = 0;
    ProcStatus Status{ProcStatus::BlockedSem};
    uint32_t Object = 0; ///< semaphore/channel id.
    /// Processes currently holding the semaphore (BlockedSem only).
    std::vector<uint32_t> Holders;
  };
  std::vector<Wait> Waits;
  /// Pids forming a wait-for cycle, if one exists (each waits on a
  /// semaphore held by the next).
  std::vector<uint32_t> Cycle;

  bool hasCycle() const { return !Cycle.empty(); }
  std::string str(const Program &P) const;
};

class DeadlockAnalyzer {
public:
  DeadlockAnalyzer(const CompiledProgram &Prog, const ExecutionLog &Log)
      : Prog(Prog), Log(Log) {}

  DeadlockReport analyze(const DeadlockInfo &Info) const;

private:
  const CompiledProgram &Prog;
  const ExecutionLog &Log;
};

} // namespace ppd

#endif // PPD_CORE_DEADLOCKANALYZER_H
