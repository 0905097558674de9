//===- log/BufferPool.h - Shared LRU pool of decoded sections ---*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BufferPool caches decoded process sections under a byte budget — the
/// memory half of the paged log tier (DESIGN.md §12). One pool is shared
/// by every session of a server (and by the single session of `ppd
/// debug`), so resident decoded-log memory is bounded by the budget plus
/// whatever is pinned, no matter how many programs are hosted — and by
/// the budget alone once every pin has dropped.
///
/// The design follows the classic database buffer-pool split (InnoDB's
/// handler/buffer-pool seam is the idiom reference): the PageStore knows
/// how to materialize a page (decode a section), the pool decides which
/// materialized pages stay resident. Frames are keyed by (store id, pid),
/// LRU-ordered per shard, and pinned by refcount while a replay walks
/// them; eviction takes unpinned frames from the cold end. Concurrent
/// faults of the same section single-flight: one thread decodes, the
/// rest wait on the shard's condvar and share the frame.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_LOG_BUFFERPOOL_H
#define PPD_LOG_BUFFERPOOL_H

#include "log/LogRecord.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace ppd {

class PageStore;

/// Monotonic counters plus a point-in-time residency snapshot, surfaced
/// through `stats` and the server's /metrics.
struct BufferPoolStats {
  uint64_t Hits = 0;       ///< pin() served from a resident frame.
  uint64_t Misses = 0;     ///< pin() had to decode (includes failures).
  uint64_t Evictions = 0;  ///< frames dropped for budget.
  uint64_t Insertions = 0; ///< frames decoded and admitted.
  size_t BytesResident = 0;
  size_t BytesPinned = 0;
  size_t Entries = 0;
  size_t PeakBytes = 0; ///< high-water resident bytes.
  size_t Budget = 0;
};

class BufferPool {
  struct Shard;

public:
  /// \p BudgetBytes bounds resident decoded sections (pinned frames can
  /// exceed it — correctness needs the pinned section regardless of
  /// budget). Each shard keeps to an equal share of it. Shard count is
  /// rounded to a power of two.
  explicit BufferPool(size_t BudgetBytes, unsigned NumShards = 8);
  ~BufferPool();

  BufferPool(const BufferPool &) = delete;
  BufferPool &operator=(const BufferPool &) = delete;

  /// One resident decoded section. The refcount (not the shared_ptr use
  /// count) is what eviction consults: shard bookkeeping also holds the
  /// shared_ptr, so liveness and pinnedness are separate notions.
  struct Frame {
    ProcessLog Log;
    size_t Bytes = 0; ///< in-memory footprint (records + spilled vectors).
    std::atomic<uint32_t> Pins{0};
    Shard *Home = nullptr; ///< the shard whose LRU holds this frame.
  };

  /// RAII pin on one decoded section. While alive, the frame cannot be
  /// evicted and log() is stable. A default/failed Pin is falsy. A Pin
  /// must not outlive its pool: releasing the last pin on a frame may run
  /// the frame's shard's eviction pass.
  class Pin {
  public:
    Pin() = default;
    Pin(Pin &&Other) noexcept
        : F(std::move(Other.F)), Pool(Other.Pool) {
      Other.F = nullptr;
    }
    Pin &operator=(Pin &&Other) noexcept {
      if (this != &Other) {
        release();
        F = std::move(Other.F);
        Pool = Other.Pool;
        Other.F = nullptr;
      }
      return *this;
    }
    Pin(const Pin &) = delete;
    Pin &operator=(const Pin &) = delete;
    ~Pin() { release(); }

    explicit operator bool() const { return F != nullptr; }
    const ProcessLog &log() const { return F->Log; }

  private:
    friend class BufferPool;
    Pin(std::shared_ptr<Frame> F, BufferPool *Pool)
        : F(std::move(F)), Pool(Pool) {}
    void release() {
      if (F) {
        if (F->Pins.fetch_sub(1) == 1)
          Pool->unpinned(*F->Home);
        F = nullptr;
      }
    }
    std::shared_ptr<Frame> F;
    BufferPool *Pool = nullptr;
  };

  /// Faults in process \p Pid of \p Store: resident → LRU-front + pin
  /// (hit); absent → decode, admit, pin (miss), evicting cold unpinned
  /// frames if over budget. Returns a falsy Pin once \p Store has failed
  /// — this section or an earlier read could not be decoded, or the file
  /// changed since open (PageStore::failure() says which).
  Pin pin(const PageStore &Store, uint32_t Pid);

  /// Drops every unpinned frame belonging to \p Store (session teardown
  /// hygiene; pinned frames stay until released, then age out by LRU).
  void dropStore(const PageStore &Store);

  BufferPoolStats stats() const;
  size_t budget() const { return Budget; }

private:
  uint64_t keyOf(const PageStore &Store, uint32_t Pid) const;
  Shard &shardFor(uint64_t Key);
  void evictCold(Shard &S);
  /// A frame of \p S lost its last pin: evict if \p S is over its share.
  void unpinned(Shard &S);

  size_t Budget;
  size_t ShardBudget;
  std::vector<std::unique_ptr<Shard>> Shards;

  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> Insertions{0};
  std::atomic<size_t> Resident{0};
  std::atomic<size_t> Peak{0};
};

} // namespace ppd

#endif // PPD_LOG_BUFFERPOOL_H
