//===- tests/cache_test.cpp - Replay cache / replay service ---------------===//
//
// Part of PPD test suite: the sharded LRU trace cache (hit/miss/eviction
// accounting, byte budgets) and the replay service's memoization and
// single-flight dedup, within one service and across services that share
// a cache (the server's sessions of one program).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/ReplayService.h"
#include "trace/ReplayCache.h"

#include <gtest/gtest.h>

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
// ReplayService
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
  std::unique_ptr<ReplayService> Service;

  explicit ServiceFixture(ReplayServiceOptions Options = {},
                          uint64_t Seed = 1) {
    R = runProgram(CacheWorkload, Seed);
    Index = std::make_unique<LogIndex>(R.Log);
    Service = std::make_unique<ReplayService>(
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
  EXPECT_EQ(ReplayService::fingerprint({}), 0u);
  std::vector<ReplayOverride> A = {{1, 2, -1, 10}, {3, 4, -1, 20}};
  std::vector<ReplayOverride> B = {{3, 4, -1, 20}, {1, 2, -1, 10}};
  EXPECT_NE(ReplayService::fingerprint(A), 0u);
  EXPECT_NE(ReplayService::fingerprint(A), ReplayService::fingerprint(B));
}

TEST(ReplayServiceTest, ConcurrentGetsOfOneIntervalReplayOnce) {
  ServiceFixture F;
  constexpr int NumCallers = 8;
  std::vector<std::thread> Callers;
  std::vector<ReplayService::ReplayPtr> Got(NumCallers);
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

TEST(ReplayServiceTest, SessionsSharingACacheReplayAColdIntervalOnce) {
  // Two services over one log, one cache and one flight table: the
  // server's two sessions of one program. Eight threads alternate
  // between them on one cold interval.
  Ran R = runProgram(CacheWorkload, 1);
  LogIndex Index(R.Log);
  PagedLog Log = PagedLog::fromLog(R.Log);
  ReplayServiceOptions Shared;
  Shared.SharedCache = std::make_shared<ReplayCache<ReplayResult>>(0, 8);
  Shared.SharedFlights = std::make_shared<ReplayFlightTable>();
  ReplayService A(*R.Prog, Log, Index, Shared);
  ReplayService B(*R.Prog, Log, Index, Shared);

  constexpr int NumCallers = 8;
  std::vector<std::thread> Callers;
  std::vector<ReplayService::ReplayPtr> Got(NumCallers);
  for (int I = 0; I != NumCallers; ++I)
    Callers.emplace_back([&, I] { Got[I] = (I % 2 ? B : A).get(1, 0); });
  for (std::thread &T : Callers)
    T.join();
  for (const auto &Ptr : Got) {
    ASSERT_NE(Ptr, nullptr);
    EXPECT_TRUE(Ptr->Ok) << Ptr->Error;
    EXPECT_EQ(Ptr.get(), Got[0].get());
  }
  EXPECT_EQ(A.stats().EngineReplays + B.stats().EngineReplays, 1u)
      << "one engine run across both sessions";
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
