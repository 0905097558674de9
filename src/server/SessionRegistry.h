//===- server/SessionRegistry.h - Multi-session ownership -------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns the server's debugging sessions. Each registered program carries
/// a compiled artifact, a paged log (store + pool), its interval index,
/// and one shared ReplayCache + single-flight table; every session opened
/// against it gets its own Controller/DebugSession over the shared store
/// and replays through the shared cache, so concurrent sessions over the
/// same execution deduplicate e-block regeneration across sessions — the
/// expensive half of a flowback query — while their dynamic graphs stay
/// private.
///
/// Concurrency model: the registry map is guarded by one mutex taken only
/// for open/lookup/close/evict; each session has its own mutex serializing
/// its (stateful) command stream. Independent sessions therefore run in
/// parallel on the scheduler's workers, while two clients sharing a session
/// id see a consistent interleaving of whole commands. Handles pin a
/// session: close marks it and eviction skips pinned sessions, so a
/// request already executing can never have the session destroyed under
/// it.
///
/// Idle eviction is tick-based, not wall-clock: every acquire stamps the
/// session with the current registry tick, and evictIdle(N) drops
/// sessions untouched for N ticks. Deterministic, hence testable.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SERVER_SESSIONREGISTRY_H
#define PPD_SERVER_SESSIONREGISTRY_H

#include "core/Controller.h"
#include "core/DebugSession.h"
#include "log/BufferPool.h"
#include "log/PageStore.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ppd {

struct SessionRegistryOptions {
  /// Open-session cap across all programs (0 = unlimited).
  unsigned MaxSessions = 64;
  /// Per-program shared replay-cache budget.
  size_t CacheBytes = size_t(64) << 20;
  unsigned CacheShards = 8;
  /// Byte budget of the buffer pool shared by every program whose
  /// PagedLog arrives without a pool of its own.
  size_t PoolBudget = size_t(256) << 20;
};

class SessionRegistry {
public:
  /// One live debugging session. Command execution must hold Mutex.
  struct Session {
    uint64_t Id = 0;
    uint32_t ProgramIndex = 0;
    std::unique_ptr<PpdController> Controller;
    std::unique_ptr<DebugSession> Debug;
    std::mutex Mutex;
    /// Requests currently holding a handle; eviction requires 0.
    std::atomic<uint32_t> Pins{0};
    uint64_t LastUsedTick = 0;
    bool Closed = false;
  };

  /// Pins a session for the duration of one request.
  class Handle {
  public:
    Handle() = default;
    explicit Handle(std::shared_ptr<Session> S) : Ptr(std::move(S)) {
      if (Ptr)
        Ptr->Pins.fetch_add(1, std::memory_order_relaxed);
    }
    Handle(Handle &&Other) noexcept : Ptr(std::move(Other.Ptr)) {}
    Handle &operator=(Handle &&Other) noexcept {
      if (this != &Other) {
        release();
        Ptr = std::move(Other.Ptr);
      }
      return *this;
    }
    Handle(const Handle &) = delete;
    Handle &operator=(const Handle &) = delete;
    ~Handle() { release(); }

    explicit operator bool() const { return Ptr != nullptr; }
    Session *operator->() const { return Ptr.get(); }
    Session &operator*() const { return *Ptr; }

  private:
    void release() {
      if (Ptr) {
        Ptr->Pins.fetch_sub(1, std::memory_order_relaxed);
        Ptr.reset();
      }
    }
    std::shared_ptr<Session> Ptr;
  };

  explicit SessionRegistry(SessionRegistryOptions Options = {});
  ~SessionRegistry();

  /// Registers a program with a log a run just recorded: the log becomes
  /// an in-memory store (PageStore::fromLog) on the shared section pool.
  uint32_t addProgram(std::unique_ptr<CompiledProgram> Prog,
                      const ExecutionLog &Log);

  /// Registers a program + paged log; returns its index. Sessions fault
  /// sections in through the pool. When \p Log carries no pool, the
  /// registry's shared pool (sectionPool()) is used. \p Index may be a
  /// pre-built sidecar index; null skims one from the store here, once.
  /// \p Graph, when set, is the sidecar's parallel dynamic graph, adopted
  /// by every session instead of each faulting all sections to build one.
  uint32_t
  addProgram(std::unique_ptr<CompiledProgram> Prog, PagedLog Log,
             std::shared_ptr<const LogIndex> Index = nullptr,
             std::shared_ptr<const ParallelDynamicGraph> Graph = nullptr);

  /// The section buffer pool shared by every program that did not bring
  /// its own (and by streamed tail snapshots), created on first use with
  /// Options.PoolBudget.
  std::shared_ptr<BufferPool> sectionPool();

  size_t numPrograms() const;

  /// The compiled program registered at \p Index, or null when out of
  /// range; when \p Hash is set and the index is valid, *Hash receives the
  /// programHash computed once at registration. The pointee's address is
  /// stable for the registry's lifetime (entries are never removed); the
  /// streaming ingest layer resolves a StreamHello's target program
  /// through this.
  const CompiledProgram *program(uint32_t Index,
                                 uint64_t *Hash = nullptr) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Index >= Programs.size())
      return nullptr;
    if (Hash)
      *Hash = Programs[Index].Hash;
    return Programs[Index].Prog.get();
  }

  /// Opens a session against program \p ProgramIndex. Returns 0 when the
  /// index is bad or MaxSessions is reached (ids start at 1).
  uint64_t open(uint32_t ProgramIndex);

  /// Pins and returns session \p Id; an empty handle if unknown/closed.
  /// Stamps the session with a fresh use tick.
  Handle acquire(uint64_t Id);

  /// Marks \p Id closed and unlinks it from the map; in-flight handles
  /// keep the object alive until they drop. False if unknown.
  bool close(uint64_t Id);

  /// Drops every unpinned session idle for at least \p IdleTicks ticks
  /// (tick = one acquire/open anywhere). Returns how many were evicted.
  unsigned evictIdle(uint64_t IdleTicks);

  size_t numSessions() const;

  /// Aggregated replay-service stats across all live sessions plus each
  /// program's shared cache — the replay half of the server metrics
  /// report.
  ReplayServiceStats aggregateReplayStats() const;

private:
  struct ProgramEntry {
    std::unique_ptr<CompiledProgram> Prog;
    uint64_t Hash = 0; ///< programHash(*Prog), computed once.
    PagedLog Log;
    /// Shared by every session (none re-skims per open).
    std::shared_ptr<const LogIndex> Index;
    /// Sidecar parallel dynamic graph; null when the program was
    /// registered without one (sessions build lazily).
    std::shared_ptr<const ParallelDynamicGraph> Graph;
    std::shared_ptr<ReplayCache<ReplayResult>> Cache;
    std::shared_ptr<ReplayFlightTable> Flights;
  };

  /// Hashes \p Entry's program, gives it a cache and a flight table, and
  /// appends it; returns its index. Caller holds Mutex.
  uint32_t pushProgram(ProgramEntry Entry);

  SessionRegistryOptions Options;
  /// Guarded by Mutex; see sectionPool().
  std::shared_ptr<BufferPool> SectionPool;

  mutable std::mutex Mutex;
  std::vector<ProgramEntry> Programs;
  std::map<uint64_t, std::shared_ptr<Session>> Sessions;
  uint64_t NextId = 1;
  uint64_t Tick = 0;
};

} // namespace ppd

#endif // PPD_SERVER_SESSIONREGISTRY_H
