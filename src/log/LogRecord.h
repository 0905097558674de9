//===- log/LogRecord.h - Execution-phase log records ------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The log generated during the execution phase (paper Fig 3.2): one log
/// per process, holding
///
///   * **prelogs** — values of USED(i) at each e-block entry,
///   * **postlogs** — values of DEFINED(i) at each e-block exit (plus the
///     return value when the exit leaves the function), enabling both
///     nested-interval skipping (Fig 5.2) and state restoration (§5.7),
///   * **unit logs** — the additional prelogs of shared variables at
///     synchronization-unit entries (§5.5),
///   * **input records** — values consumed by `input()`, so replay feeds
///     "the same input as originally fed to the program" (§3.2.2),
///   * **sync events** — one record per synchronization operation,
///     carrying the matching information for synchronization edges (§6.2)
///     and the shared READ/WRITE sets of the internal edge that just ended
///     (Defs 6.2–6.3). Receive events carry the received value so replay
///     needs no co-process.
///
/// The replay engine consumes a process's records strictly in order; both
/// compiled artifacts emit/consume in the same sequence by construction.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_LOG_LOGRECORD_H
#define PPD_LOG_LOGRECORD_H

#include "lang/Ast.h"
#include "log/RecordArena.h"
#include "support/SmallVec.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ppd {

enum class LogRecordKind : uint8_t {
  Prelog,
  Postlog,
  UnitLog,
  Input,
  SyncEvent,
  Stop, ///< the machine froze here (failure elsewhere, breakpoint, user
        ///< halt): replay of this process stops exactly at this point
        ///< instead of running ahead of what actually executed.
};

/// Which synchronization operation a SyncEvent describes.
enum class SyncKind : uint8_t {
  ProcStart,       ///< process began (PartnerSeq = parent's SpawnChild, or
                   ///< none for the root process)
  ProcEnd,         ///< process terminated
  SemAcquire,      ///< P completed (PartnerSeq = enabling V, if any)
  SemSignal,       ///< V executed
  ChanSend,        ///< message enqueued or handed off
  ChanSendUnblock, ///< blocked sender resumed (PartnerSeq = the receive)
  ChanRecv,        ///< message received (PartnerSeq = the send; Value =
                   ///< message payload)
  SpawnChild,      ///< spawn executed (Value = child pid)
  Stopped,         ///< machine froze with this process mid-edge (failed,
                   ///< blocked at a deadlock, or preempted when another
                   ///< process failed / a breakpoint hit): flushes the trailing
                   ///< READ/WRITE sets accumulated since the last sync
                   ///< node so races in the unterminated final segment
                   ///< stay visible to §6.4 detection.
};

const char *syncKindName(SyncKind Kind);

/// A variable's captured contents: one value for scalars, ArraySize values
/// for arrays. Inline storage covers scalars and 2-element arrays; only
/// larger arrays spill — the emit path's common case never allocates.
struct VarValue {
  VarId Var = InvalidId;
  SmallVec<int64_t, 2> Values;
};

/// Sentinel for "no partner" in SyncEvent records.
inline constexpr uint64_t NoPartner = ~0ull;

struct LogRecord {
  LogRecordKind Kind = LogRecordKind::Input;
  /// E-block id (Prelog/Postlog), unit id (UnitLog), semaphore/channel id
  /// (SyncEvent).
  uint32_t Id = 0;
  /// PostlogFlags for Postlog records.
  uint32_t Flags = 0;
  /// Return value (Postlog with PostlogExitsFunction), input value,
  /// received value, or spawned child pid.
  int64_t Value = 0;
  /// Global synchronization sequence number (SyncEvent only).
  uint64_t Seq = 0;
  uint64_t PartnerSeq = NoPartner;
  SyncKind Sync = SyncKind::ProcStart;
  /// Originating statement, when known (SyncEvent).
  StmtId Stmt = InvalidId;
  /// Captured variable values (Prelog/Postlog/UnitLog).
  SmallVec<VarValue, 2> Vars;
  /// Shared-variable indices read/written on the internal edge ending at
  /// this SyncEvent (race detection, Def 6.2), in ascending order.
  SmallVec<uint32_t, 4> ReadSet;
  SmallVec<uint32_t, 4> WriteSet;

  /// Approximate on-disk size in bytes; the currency of experiment E2
  /// (incremental-log volume vs full-trace volume).
  size_t byteSize() const;
};

/// A SyncEvent record as the parallel dynamic graph keeps it (§6.1): one
/// synchronization node, without the record's value or READ/WRITE ids.
struct SyncNode {
  SyncKind Kind = SyncKind::ProcStart;
  uint32_t Object = 0;       ///< semaphore/channel/function id.
  uint64_t Seq = 0;          ///< global sequence number.
  uint64_t PartnerSeq = NoPartner;
  StmtId Stmt = InvalidId;
  uint32_t RecordIdx = 0;    ///< index of the record in the process log.
};

/// One process's SyncEvent records as flat rows, in record order: what a
/// section skim collects (v2::skimSection) and a `.ppdb` sidecar stores.
/// The READ/WRITE ids of all rows share one array.
struct SyncRows {
  std::vector<SyncNode> Nodes;
  std::vector<uint32_t> Ids;
  /// Row i's READ ids are Ids[IdsAt[2i], IdsAt[2i+1]) and its WRITE ids
  /// Ids[IdsAt[2i+1], IdsAt[2i+2]).
  std::vector<uint32_t> IdsAt{0};

  std::span<const uint32_t> reads(size_t I) const {
    return {Ids.data() + IdsAt[2 * I], Ids.data() + IdsAt[2 * I + 1]};
  }
  std::span<const uint32_t> writes(size_t I) const {
    return {Ids.data() + IdsAt[2 * I + 1], Ids.data() + IdsAt[2 * I + 2]};
  }
  /// Closes the id run begun since the last call: a row's READ ids, then
  /// its WRITE ids.
  void endIds() { IdsAt.push_back(uint32_t(Ids.size())); }
};

/// The record stream of one process: arena-chunked, so appends during the
/// execution phase never re-allocate or move already-emitted records.
using RecordSeq = RecordStore<LogRecord>;

/// The log of one process, in emission order.
struct ProcessLog {
  uint32_t Pid = 0;
  uint32_t RootFunc = 0;           ///< function the process runs.
  std::vector<int64_t> Args;       ///< root invocation arguments.
  RecordSeq Records;
  /// Number of Prelog records in Records, maintained on emit and load:
  /// the exact interval count, so LogIndex pre-reserves precisely.
  uint32_t PrelogCount = 0;

  size_t byteSize() const;
};

} // namespace ppd

#endif // PPD_LOG_LOGRECORD_H
