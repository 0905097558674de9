//===- log/LogFormatV2.h - v2 on-disk codec internals -----------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The v2 log format's record and section codecs, shared by the consumers
/// that must agree byte-for-byte on the encoding:
///
///   * ExecutionLog::save/load — whole-file serialization (the original
///     home of these functions);
///   * PageStore — the paged storage layer, which decodes one process
///     section at a time on buffer-pool fault-in and *skims* sections
///     (record kinds and interval structure only, no body
///     materialization) for index-only opens; an in-memory store
///     encodes its image with the same writeLog that save uses.
///
/// Everything here is an internal interface of src/log: the layout is
/// documented in DESIGN.md §7 and changes only with a format-version
/// bump.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_LOG_LOGFORMATV2_H
#define PPD_LOG_LOGFORMATV2_H

#include "log/ExecutionLog.h"
#include "log/LogIO.h"

#include <cstdint>
#include <vector>

namespace ppd {
namespace v2 {

/// "PPDL"; the u32 after it is the format version (LogFormat).
inline constexpr uint32_t FileMagic = 0x5050444cu;

/// StmtId's InvalidId (~0u) maps to 0 so the common "no statement" case
/// costs one byte; uint32_t wraparound makes the mapping exact.
inline uint64_t stmtCode(uint32_t Stmt) { return uint64_t(uint32_t(Stmt + 1)); }
inline uint32_t stmtDecode(uint64_t Code) { return uint32_t(Code) - 1; }

/// Record codec. \p PrevSeq carries the per-process SyncEvent sequence
/// delta state across calls; start each section at 0.
void writeRecord(LogWriter &W, const LogRecord &R, uint64_t &PrevSeq);
bool readRecord(ByteReader &R, LogRecord &Out, uint64_t &PrevSeq);

/// The fixed prefix of one process section, before the record stream.
struct SectionHeader {
  uint32_t Pid = 0;
  uint32_t RootFunc = 0;
  std::vector<int64_t> Args;
  uint64_t NumRecords = 0;
  uint64_t PrelogCount = 0;
};

/// Reads a section header, leaving \p R positioned at the first record.
/// Record and prelog counts are checked against \p Extent, the section's
/// whole byte length: \p R may cover only the section's first bytes (a
/// store's open-time header read).
bool readSectionHeader(ByteReader &R, SectionHeader &Out, uint64_t Extent);

/// Decodes one whole v2 process section into \p P. Thread-safe: touches
/// only its own section's bytes and its own ProcessLog. Validates the
/// header's prelog count against the decoded records.
bool decodeSection(ByteReader R, ProcessLog &P);

/// Skims one v2 process section: walks the record stream reading only the
/// fields interval construction needs (kind, e-block id, postlog flags)
/// and builds the LogInterval tree directly. Record bodies — captured
/// variable values, read/write sets — are skipped over, never
/// materialized. Validates as strictly as decodeSection (full-section
/// walk, prelog-count cross-check), but allocates only the interval
/// vectors.
bool skimSection(ByteReader R, std::vector<LogInterval> &Intervals,
                 std::vector<uint32_t> &Open);

/// Output-stream codec (the trailer after the process sections).
void writeOutput(LogWriter &W, const std::vector<OutputRecord> &Out);
bool readOutput(ByteReader &R, std::vector<OutputRecord> &Out);

/// Encodes \p Log as a whole v2 file image: magic, version, process
/// count, length-prefixed sections, output trailer. These are the bytes
/// ExecutionLog::save writes and PageStore::fromLog serves from memory.
void writeLog(LogWriter &W, const ExecutionLog &Log);

} // namespace v2
} // namespace ppd

#endif // PPD_LOG_LOGFORMATV2_H
