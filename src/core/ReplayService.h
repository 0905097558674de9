//===- core/ReplayService.h - Memoized need-to-generate replay -*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay service: the need-to-generate half of incremental tracing
/// (§5.3). A query replays exactly the intervals it asks about, on the
/// caller's thread:
///
///   * every replay goes through a sharded LRU ReplayCache keyed by
///     (process, interval, override fingerprint), so a repeated flowback
///     query costs a lookup instead of an emulation run;
///   * concurrent requests for the same interval are deduplicated
///     (single-flight): one thread replays, the rest share the result.
///     The server's sessions run on its request workers and share one
///     cache and flight table per program, so this is what keeps two
///     sessions from replaying the same interval twice.
///
/// The service never touches the dynamic graph; graph splicing stays
/// with the controller.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_CORE_REPLAYSERVICE_H
#define PPD_CORE_REPLAYSERVICE_H

#include "core/Replay.h"
#include "log/BufferPool.h"
#include "log/ExecutionLog.h"
#include "log/PageStore.h"
#include "trace/ReplayCache.h"

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ppd {

/// Single-flight table shared by every replayer of one log: key → future
/// of the in-progress replay. Kept as a standalone (shareable) object so
/// concurrent debugging sessions over the same execution deduplicate
/// replays across sessions, not just within one.
struct ReplayFlightTable {
  using ReplayPtr = std::shared_ptr<const ReplayResult>;
  std::mutex Mutex;
  std::unordered_map<ReplayKey, std::shared_future<ReplayPtr>,
                     ReplayKeyHash>
      Pending;
};

struct ReplayServiceOptions {
  /// Cache budget for regenerated traces (0 = unbounded). Ignored when
  /// SharedCache is set.
  size_t CacheBytes = size_t(64) << 20;
  unsigned CacheShards = 8;

  /// A cache shared with other replayers of the same log (the server's
  /// per-program cache). Valid only when every sharer replays identical
  /// log content, since cache keys are (pid, interval, fingerprint).
  /// Null: the replayer owns a private cache sized by CacheBytes.
  std::shared_ptr<ReplayCache<ReplayResult>> SharedCache = nullptr;
  /// A single-flight table shared with other replayers of the same log;
  /// must be non-null iff SharedCache is (they dedupe the same keyspace).
  std::shared_ptr<ReplayFlightTable> SharedFlights = nullptr;
};

struct ReplayServiceStats {
  ReplayCacheStats Cache;
  /// Counters of the buffer pool the log's sections fault in through.
  BufferPoolStats Buffer;
  /// Replays actually executed by the engine (cache misses).
  uint64_t EngineReplays = 0;
  /// Instructions executed across those replays.
  uint64_t EngineInstructions = 0;
  /// Always 0; read only by perfbench until its JIT per-layer rows go.
  uint64_t JitCompiles = 0, JitBailouts = 0, JitCompileNs = 0;
};

/// Canonical text rendering of a stats snapshot — the single source of
/// truth shared by the debugger `stats` command and the server metrics
/// report ("cache: ..." and "bufferpool: ..." lines).
std::string renderReplayServiceStats(const ReplayServiceStats &Stats);

/// Cached front end to ReplayEngine.
class ReplayService {
public:
  using ReplayPtr = std::shared_ptr<const ReplayResult>;

  /// Every cache miss pins the replayed process's section of \p Log in
  /// its buffer pool for the duration of the interval re-execution.
  ReplayService(const CompiledProgram &Prog, PagedLog Log,
                const LogIndex &Index, ReplayServiceOptions Options = {});

  /// The memoized replay of one interval; replays on miss. Thread-safe.
  ReplayPtr get(uint32_t Pid, uint32_t IntervalIdx,
                const std::vector<ReplayOverride> &Overrides = {});

  ReplayServiceStats stats() const;

  /// Stable hash of an override list; 0 iff the list is empty, so the
  /// faithful replay owns fingerprint 0.
  static uint64_t fingerprint(const std::vector<ReplayOverride> &Overrides);

private:
  ReplayPtr replayMiss(const ReplayKey &Key,
                       const std::vector<ReplayOverride> &Overrides);

  PagedLog Log;
  const LogIndex &Index;
  ReplayEngine Engine;
  /// Shared with sibling sessions when Options.SharedCache was set;
  /// privately owned otherwise.
  std::shared_ptr<ReplayCache<ReplayResult>> Cache;
  std::shared_ptr<ReplayFlightTable> Flights;

  std::atomic<uint64_t> EngineReplays{0};
  std::atomic<uint64_t> EngineInstructions{0};
};

} // namespace ppd

#endif // PPD_CORE_REPLAYSERVICE_H
