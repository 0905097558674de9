//===- stream/Ingest.h - Server-side streaming ingest -----------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server side of live attach (DESIGN.md §13). An IngestRegistry is
/// installed as the DebugServer's stream dispatcher and owns one
/// IngestStream per live tracer:
///
///   * SectionData frames are staged until the cut's SectionLastInCut
///     frame, then the whole cut validates and applies *atomically* under
///     the stream's mutex — a tail query can never observe half a cut,
///     which is what makes every frontier a consistent prefix of the
///     final execution;
///   * the LogIndex and ParallelDynamicGraph extend incrementally
///     (appendRecords / appendProcess + finalizeTail) instead of
///     rebuilding — identical, by the append invariants, to a batch
///     build over the same prefix;
///   * every applied cut is flushed to the spill file before it is
///     acknowledged, so the spill is openable up to the last sealed cut
///     whenever the connection drops;
///   * validation happens *before* mutation (dense pids, record-count
///     continuity, strictly increasing sequence numbers, partner closure
///     within {already applied} ∪ {this cut}) — a hostile stream gets a
///     typed StreamProtocol error, never release-mode UB;
///   * tail debugging: TailQuery builds (and caches, per frontier
///     version) a snapshot PpdController/DebugSession over an in-memory
///     PageStore of the accumulated log on the server's section pool,
///     adopting copies of the index and graph, so queries run at full
///     batch speed without re-deriving anything. A snapshot whose records
///     do not fit the program answers with a typed LogUnreadable error,
///     as a served session over a corrupt file does.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_STREAM_INGEST_H
#define PPD_STREAM_INGEST_H

#include "server/DebugServer.h"
#include "stream/Spill.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ppd {

class DebugSession;
class PpdController;
class ParallelDynamicGraph;

namespace stream {

struct IngestOptions {
  /// Directory for spill files; empty keeps streams memory-only (tests).
  std::string SpillDir;
  /// Send credit granted at StreamHello; one credit returns per
  /// SectionData ack. The E12 knob.
  uint32_t CreditWindow = 8;
  /// Total spill bytes across every ingest session; past it new cuts get
  /// a typed Busy rejection. 0 = unbounded.
  uint64_t SpillBudget = 0;
  /// `--spill-sync`: fdatasync the spill after every acked cut, so an
  /// acked cut survives power loss rather than just a process crash.
  /// Stream finalization is always durable (fsync tmp + dir around the
  /// rename) — this flag buys per-cut durability on top.
  bool SpillSync = false;
  /// Test hook standing in for fdatasync/fsync; empty = the real
  /// syscalls. Lets tests count sync calls without strace.
  SyncFn Sync;
};

class IngestRegistry {
public:
  IngestRegistry(DebugServer &Server, IngestOptions Options);
  ~IngestRegistry();
  IngestRegistry(const IngestRegistry &) = delete;
  IngestRegistry &operator=(const IngestRegistry &) = delete;

  /// The stream dispatcher body; wire up with
  /// Server.setStreamDispatcher([&](const Request &R) {
  ///   return Registry.dispatch(R); }).
  Response dispatch(const Request &Req);

  // Introspection (tests, the streamed-vs-batch oracle).
  size_t numStreams() const;
  uint64_t spillBytes() const { return SpillBytes.load(); }
  /// Copies stream \p StreamId's accumulated frontier log. False on an
  /// unknown stream.
  bool frontierLog(uint64_t StreamId, ExecutionLog &Out) const;
  /// Copies stream \p StreamId's parallel dynamic graph, as extended cut
  /// by cut. False on an unknown stream.
  bool frontierGraph(uint64_t StreamId, ParallelDynamicGraph &Out) const;
  /// Applied-cut count of the stream (frontier version).
  uint64_t frontierVersion(uint64_t StreamId) const;
  std::string spillPathOf(uint64_t StreamId) const;
  /// Path of the canonical v2 log written when the stream ended (empty
  /// while live or spill-less).
  std::string finalLogPathOf(uint64_t StreamId) const;

private:
  struct IngestStream;

  Response handleHello(const Request &Req);
  Response handleSection(const Request &Req);
  Response handleEnd(const Request &Req);
  Response handleTail(const Request &Req);
  Response handleFrontier(const Request &Req);

  /// Validates + applies one staged cut. Returns an empty string on
  /// success, the protocol-violation message otherwise.
  std::string applyCut(IngestStream &S);

  std::shared_ptr<IngestStream> find(uint64_t StreamId) const;

  DebugServer &Server;
  IngestOptions Options;
  mutable std::mutex Mutex; ///< guards Streams/NextStreamId.
  std::map<uint64_t, std::shared_ptr<IngestStream>> Streams;
  uint64_t NextStreamId = 1;
  std::atomic<uint64_t> SpillBytes{0};
};

} // namespace stream
} // namespace ppd

#endif // PPD_STREAM_INGEST_H
