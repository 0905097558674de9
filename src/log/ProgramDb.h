//===- log/ProgramDb.h - Persisted program database sidecar -----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `.ppdb` sidecar: a versioned, persisted snapshot of the
/// preparatory phase's output for one log file — the paper's "program
/// database" (§3.2.1) given durable form, so the debugging phase *opens*
/// precomputed state instead of re-deriving it (DESIGN.md §12).
///
/// Contents: the program hash that keys the sidecar to one exact
/// compile; the def/use site tables and static-graph unit edges
/// (validated field-for-field against the fresh compile on read, so a
/// hash collision can never smuggle stale analysis in); the e-block
/// USED/DEFINED sets; the log's shape (file size and per-section
/// extents, keying the sidecar to one exact log file); the full
/// per-process LogIndex; and the parallel dynamic graph's node and
/// edge rows (§6 — constructing it is the one remaining operation that
/// reads every process's section, so persisting it is what makes a warm
/// open's cost independent of log size). The writer takes those rows
/// from the same skim that builds the index, never decoding a record,
/// and checks them as the reader will, so a sidecar it writes is one the
/// reader accepts. On a warm open, the paged debug path skips the index
/// skim *and* the graph construction — open cost becomes "read sidecar,
/// validate, go", and the first query faults in only the sections it
/// replays.
///
/// The codec reuses the bounds-checked LogIO primitives, so a truncated
/// or bit-flipped sidecar is detected at every byte offset and reported
/// as Corrupt/Stale — callers then rebuild it from the log, never trust
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_LOG_PROGRAMDB_H
#define PPD_LOG_PROGRAMDB_H

#include "log/ExecutionLog.h"

#include <cstdint>
#include <memory>
#include <string>

namespace ppd {

class CompiledProgram;
class PageStore;
class ParallelDynamicGraph;

/// Sidecar path convention: the log's own path plus ".ppdb".
std::string programDbPathFor(const std::string &LogPath);

/// Stable hash over everything the preparatory phase produced that the
/// debugging phase consumes: function metadata, both bytecode artifacts
/// (opcodes, operands, statement attributions), e-block USED/DEFINED
/// sets, synchronization units, semaphore/channel initializers, and the
/// instrumentation option. Any recompile that changes debugging-visible
/// state changes this hash. It is computed a 64-bit word at a time over
/// explicitly packed fields, so it is the same in every process that
/// compiles the same source with the same options.
uint64_t programHash(const CompiledProgram &Prog);

enum class ProgramDbStatus {
  Ok,      ///< sidecar valid for this exact program + log; index adopted.
  Missing, ///< no sidecar file.
  Stale,   ///< sidecar was written for a different program or log.
  Corrupt, ///< truncated or malformed bytes.
};

const char *programDbStatusName(ProgramDbStatus Status);

/// Writes the sidecar for (\p Prog, \p Store, \p Index) to \p Path
/// atomically (temp file + rename). \p Graph is the parallel dynamic
/// graph to persist; pass null to have it built here from the sync rows
/// of one skim per section (ParallelDynamicGraph::fromStore — no record
/// is decoded; peak memory is one section's bytes plus the graph). The
/// index and graph rows pass the reader's row checks first. False on
/// I/O failure, a corrupt section, or rows the reader would reject; the
/// last two also mark the store failed.
bool writeProgramDb(const std::string &Path, const CompiledProgram &Prog,
                    const PageStore &Store, const LogIndex &Index,
                    const ParallelDynamicGraph *Graph = nullptr);

/// Reads and validates \p Path against the freshly compiled \p Prog and
/// the opened \p Store. On Ok, \p IndexOut receives the persisted
/// LogIndex and, when \p GraphOut is non-null, *GraphOut the persisted
/// parallel dynamic graph (clocks recomputed); on any other status both
/// are untouched and the caller should rebuild (and usually rewrite)
/// the sidecar.
ProgramDbStatus
readProgramDb(const std::string &Path, const CompiledProgram &Prog,
              const PageStore &Store,
              std::shared_ptr<const LogIndex> &IndexOut,
              std::shared_ptr<const ParallelDynamicGraph> *GraphOut = nullptr);

} // namespace ppd

#endif // PPD_LOG_PROGRAMDB_H
