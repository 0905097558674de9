//===- log/BufferPool.cpp - Shared LRU pool of decoded sections -----------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//

#include "log/BufferPool.h"

#include "log/PageStore.h"

#include <condition_variable>
#include <list>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

using namespace ppd;

namespace {

/// In-memory footprint of a decoded section: the record array plus every
/// vector that spilled past its inline capacity. This is the currency the
/// budget is charged in — actual resident bytes, not encoded file bytes
/// (decoded records are several times larger than their varint encoding).
size_t residentBytes(const ProcessLog &P) {
  size_t Bytes = sizeof(ProcessLog) + P.Args.capacity() * sizeof(int64_t) +
                 P.Records.size() * sizeof(LogRecord);
  for (const LogRecord &R : P.Records) {
    if (R.Vars.size() > 2)
      Bytes += R.Vars.size() * sizeof(VarValue);
    for (const VarValue &V : R.Vars)
      if (V.Values.size() > 2)
        Bytes += V.Values.size() * sizeof(int64_t);
    if (R.ReadSet.size() > 4)
      Bytes += R.ReadSet.size() * sizeof(uint32_t);
    if (R.WriteSet.size() > 4)
      Bytes += R.WriteSet.size() * sizeof(uint32_t);
  }
  return Bytes;
}

} // namespace

/// One shard: an LRU list of frames plus the in-flight decode set. All
/// fields are guarded by M except the frames' atomic pin counts.
struct BufferPool::Shard {
  using LruList = std::list<std::pair<uint64_t, std::shared_ptr<Frame>>>;

  std::mutex M;
  std::condition_variable DecodeDone;
  LruList Lru; ///< front = hottest.
  std::unordered_map<uint64_t, LruList::iterator> Map;
  std::unordered_set<uint64_t> Loading; ///< single-flight decode keys.
  /// Resident bytes. Written under M; read without it where a last pin
  /// drops, so a shard within its share never takes the lock. The growth
  /// in pin(), the pin-count reads in evictCold() and the last-pin
  /// decrement and load in unpinned() are seq_cst: either the eviction
  /// pass sees the pin gone, or the unpinning thread sees the growth.
  std::atomic<size_t> Bytes{0};
};

BufferPool::BufferPool(size_t BudgetBytes, unsigned NumShards)
    : Budget(BudgetBytes) {
  unsigned N = 1;
  while (N < NumShards && N < 64)
    N <<= 1;
  Shards.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Shards.push_back(std::make_unique<Shard>());
  ShardBudget = Budget / N;
}

BufferPool::~BufferPool() = default;

uint64_t BufferPool::keyOf(const PageStore &Store, uint32_t Pid) const {
  // Store ids are a process-lifetime counter and pids are per-log process
  // indices; both are far below their field widths.
  return (Store.id() << 24) | uint64_t(Pid);
}

BufferPool::Shard &BufferPool::shardFor(uint64_t Key) {
  // Multiplicative mix so consecutive pids of one store spread across
  // shards instead of clustering.
  uint64_t H = Key * 0x9e3779b97f4a7c15ull;
  return *Shards[(H >> 32) & (Shards.size() - 1)];
}

BufferPool::Pin BufferPool::pin(const PageStore &Store, uint32_t Pid) {
  if (Store.failed())
    return Pin();
  uint64_t Key = keyOf(Store, Pid);
  Shard &S = shardFor(Key);

  std::unique_lock<std::mutex> Lock(S.M);
  for (;;) {
    auto It = S.Map.find(Key);
    if (It != S.Map.end()) {
      // Hit: bump to hottest, pin under the shard lock (eviction also
      // runs under it, so a frame observed here cannot vanish).
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
      std::shared_ptr<Frame> F = It->second->second;
      F->Pins.fetch_add(1, std::memory_order_acquire);
      Hits.fetch_add(1, std::memory_order_relaxed);
      return Pin(std::move(F), this);
    }
    if (!S.Loading.contains(Key))
      break;
    // Another thread is decoding this very section; share its result.
    S.DecodeDone.wait(Lock);
  }

  // Miss: decode outside the lock — fault-in is the expensive step and
  // other sections of this shard must stay pinnable meanwhile.
  S.Loading.insert(Key);
  Lock.unlock();
  auto F = std::make_shared<Frame>();
  bool Ok = Store.decodeSection(Pid, F->Log);
  if (Ok)
    F->Bytes = residentBytes(F->Log);
  Lock.lock();
  S.Loading.erase(Key);
  S.DecodeDone.notify_all();
  Misses.fetch_add(1, std::memory_order_relaxed);
  if (!Ok)
    return Pin(); // never admitted; the store now reports failure().

  F->Pins.store(1, std::memory_order_relaxed);
  F->Home = &S;
  S.Lru.emplace_front(Key, F);
  S.Map[Key] = S.Lru.begin();
  S.Bytes += F->Bytes;
  Insertions.fetch_add(1, std::memory_order_relaxed);
  size_t Now = Resident.fetch_add(F->Bytes, std::memory_order_relaxed) +
               F->Bytes;
  size_t P = Peak.load(std::memory_order_relaxed);
  while (Now > P && !Peak.compare_exchange_weak(P, Now))
    ;
  evictCold(S);
  return Pin(std::move(F), this);
}

/// Drops unpinned frames from the cold end until the shard is within its
/// share of the budget, or only pinned frames remain. Caller holds the
/// shard lock. Pinned frames are skipped, so residency is at most budget
/// plus pinned bytes; unpinned() reruns the pass as pins drop, so with
/// no pins it is at most the budget.
void BufferPool::evictCold(Shard &S) {
  size_t Bytes = S.Bytes.load(std::memory_order_relaxed);
  auto It = S.Lru.end();
  while (Bytes > ShardBudget && It != S.Lru.begin()) {
    --It;
    if (It->second->Pins.load() > 0)
      continue;
    Bytes -= It->second->Bytes;
    Resident.fetch_sub(It->second->Bytes, std::memory_order_relaxed);
    Evictions.fetch_add(1, std::memory_order_relaxed);
    S.Map.erase(It->first);
    It = S.Lru.erase(It);
  }
  S.Bytes.store(Bytes, std::memory_order_relaxed);
}

void BufferPool::unpinned(Shard &S) {
  if (S.Bytes.load() <= ShardBudget)
    return;
  std::lock_guard<std::mutex> Lock(S.M);
  evictCold(S);
}

void BufferPool::dropStore(const PageStore &Store) {
  uint64_t StoreBits = Store.id() << 24;
  for (auto &ShardPtr : Shards) {
    Shard &S = *ShardPtr;
    std::lock_guard<std::mutex> Lock(S.M);
    for (auto It = S.Lru.begin(); It != S.Lru.end();) {
      if ((It->first & ~uint64_t(0xffffff)) != StoreBits ||
          It->second->Pins.load(std::memory_order_acquire) > 0) {
        ++It;
        continue;
      }
      S.Bytes.fetch_sub(It->second->Bytes, std::memory_order_relaxed);
      Resident.fetch_sub(It->second->Bytes, std::memory_order_relaxed);
      S.Map.erase(It->first);
      It = S.Lru.erase(It);
    }
  }
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats Out;
  Out.Hits = Hits.load(std::memory_order_relaxed);
  Out.Misses = Misses.load(std::memory_order_relaxed);
  Out.Evictions = Evictions.load(std::memory_order_relaxed);
  Out.Insertions = Insertions.load(std::memory_order_relaxed);
  Out.PeakBytes = Peak.load(std::memory_order_relaxed);
  Out.Budget = Budget;
  for (const auto &ShardPtr : Shards) {
    Shard &S = *ShardPtr;
    std::lock_guard<std::mutex> Lock(S.M);
    Out.BytesResident += S.Bytes.load(std::memory_order_relaxed);
    Out.Entries += S.Lru.size();
    for (const auto &[Key, F] : S.Lru)
      if (F->Pins.load(std::memory_order_relaxed) > 0)
        Out.BytesPinned += F->Bytes;
  }
  return Out;
}
