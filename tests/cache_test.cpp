//===- tests/cache_test.cpp - Replay cache / thread pool / service --------===//
//
// Part of PPD test suite: the sharded LRU trace cache (hit/miss/eviction
// accounting, byte budgets), the work-stealing thread pool, and the
// parallel replay service's memoization, single-flight dedup, transitive
// interval sets, and prefetch plumbing.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/ReplayService.h"
#include "support/ThreadPool.h"
#include "trace/ReplayCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

using namespace ppd;
using namespace ppd::test;

namespace {

//===----------------------------------------------------------------------===//
// ReplayCache
//===----------------------------------------------------------------------===//

std::shared_ptr<const int> boxed(int V) {
  return std::make_shared<const int>(V);
}

TEST(ReplayCacheTest, LookupMissThenHit) {
  ReplayCache<int> Cache(/*CapacityBytes=*/1024, /*ShardCount=*/4);
  ReplayKey Key{0, 7, 0};
  EXPECT_EQ(Cache.lookup(Key), nullptr);
  Cache.insert(Key, boxed(42), 100);
  auto Hit = Cache.lookup(Key);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(*Hit, 42);

  ReplayCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Bytes, 100u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(ReplayCacheTest, FingerprintSeparatesWhatIfReplays) {
  ReplayCache<int> Cache(1024);
  Cache.insert({0, 0, 0}, boxed(1), 10);
  Cache.insert({0, 0, 0xdeadbeef}, boxed(2), 10);
  EXPECT_EQ(*Cache.lookup({0, 0, 0}), 1);
  EXPECT_EQ(*Cache.lookup({0, 0, 0xdeadbeef}), 2);
}

TEST(ReplayCacheTest, EvictsLeastRecentlyUsedWithinBudget) {
  // One shard so the LRU order is global and observable.
  ReplayCache<int> Cache(/*CapacityBytes=*/300, /*ShardCount=*/1);
  Cache.insert({0, 0, 0}, boxed(0), 100);
  Cache.insert({0, 1, 0}, boxed(1), 100);
  Cache.insert({0, 2, 0}, boxed(2), 100);
  // Touch interval 0 so interval 1 is the LRU victim.
  EXPECT_NE(Cache.lookup({0, 0, 0}), nullptr);
  Cache.insert({0, 3, 0}, boxed(3), 100);

  EXPECT_EQ(Cache.lookup({0, 1, 0}), nullptr) << "LRU entry evicted";
  EXPECT_NE(Cache.lookup({0, 0, 0}), nullptr);
  EXPECT_NE(Cache.lookup({0, 3, 0}), nullptr);
  EXPECT_GE(Cache.stats().Evictions, 1u);
  EXPECT_LE(Cache.stats().Bytes, 300u);
}

TEST(ReplayCacheTest, EvictedEntryStaysValidForHolders) {
  ReplayCache<int> Cache(/*CapacityBytes=*/100, /*ShardCount=*/1);
  Cache.insert({0, 0, 0}, boxed(7), 100);
  auto Held = Cache.lookup({0, 0, 0});
  ASSERT_NE(Held, nullptr);
  // This insert blows the budget and evicts interval 0.
  Cache.insert({0, 1, 0}, boxed(8), 100);
  EXPECT_EQ(Cache.lookup({0, 0, 0}), nullptr);
  EXPECT_EQ(*Held, 7) << "shared_ptr keeps the value alive past eviction";
}

TEST(ReplayCacheTest, ReplacementDoesNotLeakBytes) {
  ReplayCache<int> Cache(/*CapacityBytes=*/0, /*ShardCount=*/1);
  Cache.insert({0, 0, 0}, boxed(1), 100);
  Cache.insert({0, 0, 0}, boxed(2), 40);
  ReplayCacheStats S = Cache.stats();
  EXPECT_EQ(S.Bytes, 40u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(*Cache.lookup({0, 0, 0}), 2);
}

TEST(ReplayCacheTest, ZeroCapacityMeansUnbounded) {
  ReplayCache<int> Cache(/*CapacityBytes=*/0, /*ShardCount=*/2);
  for (uint32_t I = 0; I != 64; ++I)
    Cache.insert({0, I, 0}, boxed(int(I)), 1 << 20);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
  EXPECT_EQ(Cache.stats().Entries, 64u);
}

TEST(ReplayCacheTest, ClearEmptiesEveryShard) {
  ReplayCache<int> Cache(0, 4);
  for (uint32_t I = 0; I != 16; ++I)
    Cache.insert({I, I, 0}, boxed(int(I)), 8);
  Cache.clear();
  EXPECT_EQ(Cache.stats().Entries, 0u);
  EXPECT_EQ(Cache.stats().Bytes, 0u);
  EXPECT_EQ(Cache.lookup({3, 3, 0}), nullptr);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numThreads(), 0u);
  bool Ran = false;
  Pool.submit([&] { Ran = true; });
  EXPECT_TRUE(Ran) << "serial pool executes on the calling thread";
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(4);
    for (int I = 0; I != 200; ++I)
      Pool.submit([&] { Count.fetch_add(1, std::memory_order_relaxed); });
    // Destructor drains the queues before joining.
  }
  EXPECT_EQ(Count.load(), 200);
}

TEST(ThreadPoolTest, WorkDistributesAcrossThreads) {
  std::mutex Mutex;
  std::set<std::thread::id> Ids;
  std::atomic<int> Remaining{64};
  {
    ThreadPool Pool(4);
    for (int I = 0; I != 64; ++I)
      Pool.submit([&] {
        {
          std::lock_guard<std::mutex> Lock(Mutex);
          Ids.insert(std::this_thread::get_id());
        }
        // A little pause so tasks overlap and stealing can happen.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        Remaining.fetch_sub(1);
      });
  }
  EXPECT_EQ(Remaining.load(), 0);
  EXPECT_GE(Ids.size(), 1u);
  EXPECT_FALSE(Ids.count(std::this_thread::get_id()))
      << "with workers, the submitting thread is not drafted";
}

TEST(ThreadPoolTest, RunOneTaskHelpsDrainTheQueue) {
  ThreadPool Pool(1);
  std::atomic<int> Count{0};
  for (int I = 0; I != 16; ++I)
    Pool.submit([&] { Count.fetch_add(1); });
  // The caller can steal work instead of idling.
  while (Pool.runOneTask())
    ;
  // Whatever the worker grabbed finishes by destruction time.
  while (Count.load() != 16)
    std::this_thread::yield();
  EXPECT_EQ(Count.load(), 16);
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 8; ++I)
      Pool.submit([&Pool, &Count] {
        Pool.submit([&Count] { Count.fetch_add(1); });
      });
  }
  EXPECT_EQ(Count.load(), 8) << "nested submissions drain before shutdown";
}

//===----------------------------------------------------------------------===//
// ParallelReplayer
//===----------------------------------------------------------------------===//

const char *CacheWorkload = R"(
shared int acc;
sem lock = 1;
chan done;
func add(int d) {
  P(lock);
  acc = acc + d;
  V(lock);
  return acc;
}
func worker(int n) {
  int i = 0;
  for (i = 0; i < n; i = i + 1) add(i);
  send(done, n);
}
func main() {
  spawn worker(3);
  spawn worker(3);
  int a = recv(done);
  int b = recv(done);
  print(acc);
}
)";

struct ServiceFixture {
  Ran R;
  std::unique_ptr<LogIndex> Index;
  std::unique_ptr<ParallelReplayer> Service;

  explicit ServiceFixture(ReplayServiceOptions Options = {},
                          uint64_t Seed = 1) {
    R = runProgram(CacheWorkload, Seed);
    Index = std::make_unique<LogIndex>(R.Log);
    Service = std::make_unique<ParallelReplayer>(
        *R.Prog, PagedLog::fromLog(R.Log), *Index, Options);
  }
};

TEST(ReplayServiceTest, RepeatRequestIsACacheHit) {
  ServiceFixture F;
  auto First = F.Service->get(0, 0);
  ASSERT_NE(First, nullptr);
  EXPECT_TRUE(First->Ok) << First->Error;
  auto Second = F.Service->get(0, 0);
  EXPECT_EQ(First.get(), Second.get()) << "same shared immutable result";

  ReplayServiceStats S = F.Service->stats();
  EXPECT_EQ(S.EngineReplays, 1u);
  EXPECT_EQ(S.Cache.Hits, 1u);
  EXPECT_EQ(S.Cache.Misses, 1u);
}

TEST(ReplayServiceTest, OverridesGetTheirOwnCacheSlot) {
  ServiceFixture F;
  VarId Acc = varNamed(*F.R.Prog->Symbols, "acc");
  auto Faithful = F.Service->get(0, 0);
  auto Tweaked = F.Service->get(0, 0, {{1, Acc, -1, 99}});
  auto TweakedAgain = F.Service->get(0, 0, {{1, Acc, -1, 99}});
  EXPECT_NE(Faithful.get(), Tweaked.get());
  EXPECT_EQ(Tweaked.get(), TweakedAgain.get());
  EXPECT_EQ(F.Service->stats().EngineReplays, 2u);
}

TEST(ReplayServiceTest, FingerprintIsOrderSensitiveAndZeroReserved) {
  EXPECT_EQ(ParallelReplayer::fingerprint({}), 0u);
  std::vector<ReplayOverride> A = {{1, 2, -1, 10}, {3, 4, -1, 20}};
  std::vector<ReplayOverride> B = {{3, 4, -1, 20}, {1, 2, -1, 10}};
  EXPECT_NE(ParallelReplayer::fingerprint(A), 0u);
  EXPECT_NE(ParallelReplayer::fingerprint(A),
            ParallelReplayer::fingerprint(B));
}

TEST(ReplayServiceTest, GetManyMatchesSerialGets) {
  for (unsigned Threads : {0u, 4u}) {
    ServiceFixture F({.Threads = Threads});
    std::vector<ParallelReplayer::IntervalRef> All;
    for (uint32_t Pid = 0; Pid != F.R.Log.Procs.size(); ++Pid)
      for (const LogInterval &Interval : F.Index->intervals(Pid))
        if (Interval.PostlogRecord != InvalidId)
          All.push_back({Pid, Interval.Index});
    ASSERT_GT(All.size(), 4u);

    auto Results = F.Service->getMany(All);
    ASSERT_EQ(Results.size(), All.size());
    for (size_t I = 0; I != All.size(); ++I) {
      ASSERT_NE(Results[I], nullptr) << "request " << I;
      EXPECT_TRUE(Results[I]->Ok) << Results[I]->Error;
      // Identical to an individual (now cached) request.
      EXPECT_EQ(Results[I].get(),
                F.Service->get(All[I].first, All[I].second).get());
    }
    EXPECT_EQ(F.Service->stats().EngineReplays, All.size())
        << "each interval replayed exactly once at " << Threads
        << " threads";
  }
}

TEST(ReplayServiceTest, TransitiveIntervalsCoverAncestrySiblingsChildren) {
  ServiceFixture F;
  // Process 1 (a worker) has a root interval with nested add() calls.
  const std::vector<LogInterval> &Intervals = F.Index->intervals(1);
  ASSERT_GT(Intervals.size(), 2u);
  // Pick a nested interval that has a preceding sibling.
  const LogInterval *Nested = nullptr;
  for (const LogInterval &Interval : Intervals)
    if (Interval.Depth == 1 && Interval.Index > 1)
      Nested = &Interval;
  ASSERT_NE(Nested, nullptr);

  auto Set = F.Service->transitiveIntervals(1, Nested->Index);
  std::set<uint32_t> Got;
  for (const auto &[Pid, Idx] : Set) {
    EXPECT_EQ(Pid, 1u);
    Got.insert(Idx);
  }
  EXPECT_TRUE(Got.count(Nested->Index)) << "the interval itself";
  ASSERT_NE(Nested->Parent, InvalidId);
  EXPECT_TRUE(Got.count(Nested->Parent)) << "its parent";
  // Every preceding sibling (same parent, earlier prelog).
  for (const LogInterval &Other : Intervals)
    if (Other.Parent == Nested->Parent &&
        Other.PrelogRecord < Nested->PrelogRecord) {
      EXPECT_TRUE(Got.count(Other.Index))
          << "preceding sibling " << Other.Index;
    }
}

TEST(ReplayServiceTest, PrefetchWarmsParentAndPrecedingSibling) {
  ServiceFixture F({.Threads = 2, .Prefetch = true});
  const std::vector<LogInterval> &Intervals = F.Index->intervals(1);
  const LogInterval *Nested = nullptr;
  for (const LogInterval &Interval : Intervals)
    if (Interval.Depth == 1 && Interval.Index > 1)
      Nested = &Interval;
  ASSERT_NE(Nested, nullptr);

  F.Service->prefetchNeighbors(1, Nested->Index);
  F.Service->drain();
  ReplayServiceStats S = F.Service->stats();
  EXPECT_EQ(S.PrefetchesIssued, 2u) << "parent + preceding sibling";
  EXPECT_EQ(S.EngineReplays, 2u);
  // The prefetched parent now answers from the cache.
  F.Service->get(1, Nested->Parent);
  EXPECT_EQ(F.Service->stats().EngineReplays, 2u);
  EXPECT_GE(F.Service->stats().Cache.Hits, 1u);
}

TEST(ReplayServiceTest, PrefetchIsInertWithoutWorkersOrOptIn) {
  ServiceFixture Serial({.Threads = 0, .Prefetch = true});
  Serial.Service->prefetchNeighbors(1, 1);
  EXPECT_EQ(Serial.Service->stats().PrefetchesIssued, 0u);

  ServiceFixture NotAsked({.Threads = 2, .Prefetch = false});
  NotAsked.Service->prefetchNeighbors(1, 1);
  EXPECT_EQ(NotAsked.Service->stats().PrefetchesIssued, 0u);
}

TEST(ReplayServiceTest, ConcurrentGetsOfOneIntervalReplayOnce) {
  ServiceFixture F({.Threads = 4});
  constexpr int NumCallers = 8;
  std::vector<std::thread> Callers;
  std::vector<ParallelReplayer::ReplayPtr> Got(NumCallers);
  for (int I = 0; I != NumCallers; ++I)
    Callers.emplace_back(
        [&F, &Got, I] { Got[I] = F.Service->get(0, 0); });
  for (std::thread &T : Callers)
    T.join();
  for (const auto &Ptr : Got) {
    ASSERT_NE(Ptr, nullptr);
    EXPECT_EQ(Ptr.get(), Got[0].get());
  }
  EXPECT_EQ(F.Service->stats().EngineReplays, 1u)
      << "single-flight dedup: one engine run for eight callers";
}

TEST(ReplayServiceTest, TinyCacheBudgetEvictsButStaysCorrect) {
  // A budget smaller than one trace: each insert evicts its predecessor
  // (never itself), so alternating intervals always re-replay — slower,
  // never wrong.
  ServiceFixture F({.CacheBytes = 1, .CacheShards = 1});
  ASSERT_GT(F.Index->intervals(1).size(), 1u);
  auto A = F.Service->get(1, 0);
  F.Service->get(1, 1); // evicts interval 0
  auto A2 = F.Service->get(1, 0);
  EXPECT_TRUE(A->Ok);
  EXPECT_EQ(A->Events.Events, A2->Events.Events);
  EXPECT_GE(F.Service->stats().Cache.Evictions, 1u);
  EXPECT_EQ(F.Service->stats().EngineReplays, 3u)
      << "interval 0 was replayed twice";
}

} // namespace
