//===- log/ExecutionLog.h - Whole-run log and interval index ----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionLog aggregates the per-process logs of one run ("there is one
/// log file for each process of a parallel program", §5.6) plus the
/// program's observable output. LogIndex derives the log-interval
/// structure (Fig 5.1/5.2): every dynamic Prelog...Postlog pair is a
/// LogInterval; intervals nest through calls and sit side by side for
/// sequential e-block segments.
///
/// Binary save/load gives the "log file" of the paper a concrete form and
/// lets the debugging phase run in a separate invocation from the
/// execution phase.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_LOG_EXECUTIONLOG_H
#define PPD_LOG_EXECUTIONLOG_H

#include "log/LogRecord.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ppd {

class PageStore;

/// The on-disk format version written after the "PPDL" magic: the compact
/// encoding (varints, delta-coded sequence numbers, length-prefixed
/// per-process sections that decode independently). See DESIGN.md §7 for the
/// layout. Any other version is rejected on open.
enum class LogFormat : uint32_t { V2 = 2 };

/// One observable output line: `print(e)` by process Pid.
struct OutputRecord {
  uint32_t Pid = 0;
  int64_t Value = 0;
  StmtId Stmt = InvalidId;
};

class ExecutionLog {
public:
  std::vector<ProcessLog> Procs; ///< indexed by pid.
  std::vector<OutputRecord> Output;

  ProcessLog &proc(uint32_t Pid) {
    assert(Pid < Procs.size() && "pid out of range");
    return Procs[Pid];
  }
  const ProcessLog &proc(uint32_t Pid) const {
    assert(Pid < Procs.size() && "pid out of range");
    return Procs[Pid];
  }

  /// Total approximate log volume in bytes (experiment E2).
  size_t byteSize() const;

  /// Serializes to a binary file. The bytes go to `Path + ".tmp"`, which is then renamed over
  /// \p Path, so a reader that has the old file open (a paged store's
  /// mapping) keeps its inode. Returns false on I/O errors.
  bool save(const std::string &Path, LogFormat Format = LogFormat::V2) const;

  /// Reads a log back. On any I/O or format error (including truncation
  /// at every byte offset, or a version other than V2) returns false and
  /// leaves \p Out untouched.
  static bool load(const std::string &Path, ExecutionLog &Out);
};

/// One dynamic log interval I_i (the execution of one e-block).
struct LogInterval {
  uint32_t Index = 0;       ///< per-process interval number, by prelog order.
  uint32_t EBlock = 0;      ///< e-block id.
  uint32_t PrelogRecord = 0; ///< index of the Prelog record in the log.
  uint32_t PostlogRecord = 0; ///< index of the matching Postlog record.
  uint32_t Parent = InvalidId; ///< enclosing interval (call nesting).
  uint32_t Depth = 0;
  bool ExitsFunction = false;
};

/// Per-process interval tree, derived from the record stream.
class LogIndex {
public:
  /// Derives the interval structure of every process. Interval vectors
  /// are pre-reserved exactly from ProcessLog::PrelogCount.
  explicit LogIndex(const ExecutionLog &Log);

  /// Derives the interval structure straight from a paged store's encoded
  /// sections (v2::skimSection): record bodies are never materialized, so
  /// index-only opens cost interval vectors, not decoded logs. Implemented
  /// in PageStore.cpp. Aborts on sections the store already validated, so
  /// it cannot fail for a successfully opened store.
  explicit LogIndex(const PageStore &Store);

  /// Adopts pre-built interval tables (the `.ppdb` sidecar's persisted
  /// index).
  LogIndex(std::vector<std::vector<LogInterval>> Intervals,
           std::vector<std::vector<uint32_t>> Open)
      : Intervals(std::move(Intervals)), OpenIntervals(std::move(Open)) {}

  size_t numProcs() const { return Intervals.size(); }

  const std::vector<LogInterval> &intervals(uint32_t Pid) const {
    return Intervals[Pid];
  }

  /// Indices of intervals whose postlog was never written, innermost last.
  const std::vector<uint32_t> &openIntervals(uint32_t Pid) const {
    return OpenIntervals[Pid];
  }

  /// The interval whose prelog record index is \p RecordIdx, or null.
  const LogInterval *intervalAtRecord(uint32_t Pid, uint32_t RecordIdx) const;

  /// The innermost interval containing record \p RecordIdx, or null.
  const LogInterval *enclosing(uint32_t Pid, uint32_t RecordIdx) const;

  /// The last interval started in process \p Pid whose postlog was never
  /// written (execution stopped inside it), or null if all completed.
  /// This is where the PPD controller begins after a failure (§5.3:
  /// "locates the last prelog whose corresponding postlog has not yet been
  /// generated").
  const LogInterval *lastOpenInterval(uint32_t Pid) const;

  /// Extends process \p Pid's interval tree with \p PL's records from
  /// index \p FromRecord (streamed ingest: the tail the tracer just
  /// shipped). The open-interval stack saved by the previous build is
  /// restored, so the result is identical to rebuilding from the whole
  /// stream. \p Pid == numProcs() grows the index by one process (new
  /// pids arrive densely). Returns false — with this process's tables
  /// unspecified — on structurally invalid input (a postlog with no open
  /// interval, or closing a different e-block than it opened), so a
  /// hostile stream is reported instead of tripping debug-only asserts.
  bool appendRecords(uint32_t Pid, const ProcessLog &PL,
                     uint32_t FromRecord);

private:
  std::vector<std::vector<LogInterval>> Intervals;
  std::vector<std::vector<uint32_t>> OpenIntervals; ///< never closed, per pid.
};

} // namespace ppd

#endif // PPD_LOG_EXECUTIONLOG_H
