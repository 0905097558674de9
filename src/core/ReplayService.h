//===- core/ReplayService.h - Parallel need-to-generate replay --*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay service: the need-to-generate half of incremental tracing
/// (§5.3) as a memoized, parallel engine.
///
/// Log intervals are independent by construction — each is seeded
/// entirely from its prelog and unit logs, and on a race-free instance a
/// replay is interleaving-independent (§5.5) — so regenerating many
/// intervals is embarrassingly parallel. ParallelReplayer exploits that:
///
///   * every replay goes through a sharded LRU ReplayCache keyed by
///     (process, interval, override fingerprint), so a repeated flowback
///     query costs a lookup instead of an emulation run;
///   * concurrent requests for the same interval are deduplicated
///     (single-flight): one thread replays, the rest share the result;
///   * getMany() fans a query's interval set out across a work-stealing
///     ThreadPool, with the calling thread helping to drain the queue;
///   * prefetchNeighbors() warms the intervals a flowback walk is likely
///     to enter next — the parent and the preceding sibling in the
///     nested-interval tree (Fig 5.2), where the values read by a prelog
///     were produced — in the background.
///
/// The service never touches the dynamic graph: trace regeneration is the
/// parallel part; graph splicing stays on the controller's thread.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_CORE_REPLAYSERVICE_H
#define PPD_CORE_REPLAYSERVICE_H

#include "core/Replay.h"
#include "log/BufferPool.h"
#include "log/ExecutionLog.h"
#include "log/PageStore.h"
#include "support/ThreadPool.h"
#include "trace/ReplayCache.h"

#include <atomic>
#include <condition_variable>
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
  /// Worker threads for parallel replay; 0 = serial (inline on the
  /// caller, fully deterministic scheduling). Ignored when SharedPool is
  /// set.
  unsigned Threads = 0;
  /// Cache budget for regenerated traces (0 = unbounded). Ignored when
  /// SharedCache is set.
  size_t CacheBytes = size_t(64) << 20;
  unsigned CacheShards = 8;
  /// Warm parent/preceding-sibling intervals in the background after each
  /// replay request.
  bool Prefetch = false;

  /// A cache shared with other replayers of the same log (the server's
  /// per-program cache). Valid only when every sharer replays identical
  /// log content, since cache keys are (pid, interval, fingerprint).
  /// Null: the replayer owns a private cache sized by CacheBytes.
  std::shared_ptr<ReplayCache<ReplayResult>> SharedCache = nullptr;
  /// A single-flight table shared with other replayers of the same log;
  /// must be non-null iff SharedCache is (they dedupe the same keyspace).
  std::shared_ptr<ReplayFlightTable> SharedFlights = nullptr;
  /// An externally owned pool to run on (the server's worker pool). Null:
  /// the replayer owns a private pool with `Threads` workers. The pool
  /// must outlive the replayer.
  ThreadPool *SharedPool = nullptr;
};

struct ReplayServiceStats {
  ReplayCacheStats Cache;
  ThreadPoolStats Pool;
  /// Counters of the buffer pool the log's sections fault in through.
  BufferPoolStats Buffer;
  /// Replays actually executed by the engine (cache misses).
  uint64_t EngineReplays = 0;
  /// Instructions executed across those replays.
  uint64_t EngineInstructions = 0;
  /// Background prefetch tasks issued.
  uint64_t PrefetchesIssued = 0;
  /// Always 0; read only by perfbench until its JIT per-layer rows go.
  uint64_t JitCompiles = 0, JitBailouts = 0, JitCompileNs = 0;
};

/// Canonical text rendering of a stats snapshot — the single source of
/// truth shared by the debugger `stats` command and the server metrics
/// report ("cache: ...", "pool: ..." and "bufferpool: ..." lines).
std::string renderReplayServiceStats(const ReplayServiceStats &Stats);

/// Cached, parallel front end to ReplayEngine.
class ParallelReplayer {
public:
  using ReplayPtr = std::shared_ptr<const ReplayResult>;
  /// (pid, interval index) request.
  using IntervalRef = std::pair<uint32_t, uint32_t>;

  /// Every cache miss pins the replayed process's section of \p Log in
  /// its buffer pool for the duration of the interval re-execution.
  ParallelReplayer(const CompiledProgram &Prog, PagedLog Log,
                   const LogIndex &Index, ReplayServiceOptions Options = {});
  ~ParallelReplayer();

  /// The memoized replay of one interval; replays on miss. Thread-safe.
  ReplayPtr get(uint32_t Pid, uint32_t IntervalIdx,
                const std::vector<ReplayOverride> &Overrides = {});

  /// Replays every requested interval, fanning misses out across the
  /// pool. Results are in request order. Blocks until all complete; the
  /// calling thread helps drain the queue.
  std::vector<ReplayPtr> getMany(const std::vector<IntervalRef> &Requests);

  /// The interval set a flowback query rooted at (Pid, IntervalIdx) can
  /// transitively need (Fig 5.2): the interval itself, its ancestors
  /// (whose traces hold the surrounding events), the preceding siblings
  /// at each level (whose postlogs produced the values the prelog read),
  /// and its direct children (expandable sub-graph nodes).
  std::vector<IntervalRef> transitiveIntervals(uint32_t Pid,
                                               uint32_t IntervalIdx) const;

  /// Queues background replays of the parent and preceding sibling of
  /// (Pid, IntervalIdx) — the likely next stops of a backward walk.
  /// No-op unless Options.Prefetch is set and the pool has workers.
  void prefetchNeighbors(uint32_t Pid, uint32_t IntervalIdx);

  /// Waits for all outstanding background work.
  void drain();

  ReplayServiceStats stats() const;
  const ReplayServiceOptions &options() const { return Options; }

  /// Stable hash of an override list; 0 iff the list is empty, so the
  /// faithful replay owns fingerprint 0.
  static uint64_t fingerprint(const std::vector<ReplayOverride> &Overrides);

private:
  ReplayPtr replayMiss(const ReplayKey &Key,
                       const std::vector<ReplayOverride> &Overrides);
  void finishBackgroundTask();

  const CompiledProgram &Prog;
  PagedLog Log;
  const LogIndex &Index;
  ReplayServiceOptions Options;
  ReplayEngine Engine;
  /// Shared with sibling sessions when Options.SharedCache was set;
  /// privately owned otherwise.
  std::shared_ptr<ReplayCache<ReplayResult>> Cache;
  std::shared_ptr<ReplayFlightTable> Flights;
  /// Null when running on an external pool (Options.SharedPool).
  std::unique_ptr<ThreadPool> OwnedPool;
  ThreadPool *Pool;

  std::atomic<uint64_t> EngineReplays{0};
  std::atomic<uint64_t> EngineInstructions{0};
  std::atomic<uint64_t> PrefetchesIssued{0};

  std::mutex BackgroundMutex;
  std::condition_variable BackgroundCv;
  uint64_t BackgroundPending = 0;
};

} // namespace ppd

#endif // PPD_CORE_REPLAYSERVICE_H
