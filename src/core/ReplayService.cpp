//===- core/ReplayService.cpp ---------------------------------------------===//
//
// Part of PPD. See ReplayService.h.
//
//===----------------------------------------------------------------------===//

#include "core/ReplayService.h"

#include <cassert>

using namespace ppd;

namespace {

/// Accounted size of one cached replay: the trace itself plus the shadow
/// state vectors the controller inspects.
size_t replayBytes(const ReplayResult &R) {
  size_t Bytes = sizeof(ReplayResult) + R.Events.byteSize();
  Bytes += 8 * (R.Shared.size() + R.PrivateGlobals.size() +
                R.RootSlots.size());
  Bytes += sizeof(OutputRecord) * R.Output.size();
  Bytes += sizeof(ReplayMismatch) * R.PostlogMismatches.size();
  return Bytes;
}

} // namespace

uint64_t
ReplayService::fingerprint(const std::vector<ReplayOverride> &Overrides) {
  uint64_t H = 0;
  for (const ReplayOverride &O : Overrides) {
    uint64_t Fields[4] = {O.AtEvent, O.Var, uint64_t(O.Index),
                          uint64_t(O.Value)};
    for (uint64_t F : Fields) {
      H ^= F + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    }
  }
  // Reserve 0 for the faithful (override-free) replay.
  return Overrides.empty() ? 0 : (H ? H : 1);
}

std::string ppd::renderReplayServiceStats(const ReplayServiceStats &Stats) {
  std::string Out;
  Out += "cache: hits " + std::to_string(Stats.Cache.Hits) + ", misses " +
         std::to_string(Stats.Cache.Misses) + ", entries " +
         std::to_string(Stats.Cache.Entries) + ", bytes " +
         std::to_string(Stats.Cache.Bytes) + ", evictions " +
         std::to_string(Stats.Cache.Evictions) + "\n";
  Out += "bufferpool: hits " + std::to_string(Stats.Buffer.Hits) +
         ", misses " + std::to_string(Stats.Buffer.Misses) +
         ", evictions " + std::to_string(Stats.Buffer.Evictions) +
         ", resident " + std::to_string(Stats.Buffer.BytesResident) +
         ", pinned " + std::to_string(Stats.Buffer.BytesPinned) +
         ", peak " + std::to_string(Stats.Buffer.PeakBytes) +
         ", budget " + std::to_string(Stats.Buffer.Budget) + "\n";
  return Out;
}

ReplayService::ReplayService(const CompiledProgram &Prog, PagedLog Log,
                             const LogIndex &Index,
                             ReplayServiceOptions Options)
    : Log(std::move(Log)), Index(Index), Engine(Prog),
      Cache(std::move(Options.SharedCache)),
      Flights(std::move(Options.SharedFlights)) {
  assert(bool(Cache) == bool(Flights) &&
         "a shared cache needs a shared single-flight table (and vice "
         "versa) — they dedupe the same keyspace");
  if (!Cache) {
    Cache = std::make_shared<ReplayCache<ReplayResult>>(Options.CacheBytes,
                                                        Options.CacheShards);
    Flights = std::make_shared<ReplayFlightTable>();
  }
}

ReplayService::ReplayPtr
ReplayService::replayMiss(const ReplayKey &Key,
                          const std::vector<ReplayOverride> &Overrides) {
  // Single-flight: the first requester replays; concurrent requesters for
  // the same key share its future instead of redoing the work.
  std::promise<ReplayPtr> Promise;
  {
    std::unique_lock<std::mutex> Lock(Flights->Mutex);
    auto It = Flights->Pending.find(Key);
    if (It != Flights->Pending.end()) {
      std::shared_future<ReplayPtr> Future = It->second;
      Lock.unlock();
      return Future.get();
    }
    // No flight in progress — but a leader may have finished between our
    // caller's cache miss and this lock: it inserts into the cache before
    // erasing its flight, so re-checking the cache here closes the window
    // where we would redo its replay.
    if (ReplayPtr Cached = Cache->peek(Key))
      return Cached;
    Flights->Pending.emplace(Key, Promise.get_future().share());
  }

  assert(Key.Interval < Index.intervals(Key.Pid).size() &&
         "interval index out of range");
  ReplayOptions ROpts;
  ROpts.Overrides = Overrides;
  // Fault the section in and pin it for exactly the span of the interval
  // re-execution; the pin releases before the result is published, so
  // cached hits hold no pool memory. A failed pin or a record the program
  // cannot have leaves the store failed; the controller's caller reports
  // its failure().
  const PageStore &Store = *Log.Store;
  ReplayResult Replay;
  if (BufferPool::Pin Pin = Log.Pool->pin(Store, Key.Pid)) {
    Replay = Engine.replay(Pin.log(), Key.Pid,
                           Index.intervals(Key.Pid)[Key.Interval], ROpts);
    if (Replay.BadRecord)
      Store.markCorrupt("section " + std::to_string(Key.Pid) + ": " +
                        Replay.Error);
  } else {
    Replay.Error = Store.failure();
  }
  auto Result = std::make_shared<const ReplayResult>(std::move(Replay));
  EngineReplays.fetch_add(1, std::memory_order_relaxed);
  EngineInstructions.fetch_add(Result->Instructions,
                               std::memory_order_relaxed);
  Cache->insert(Key, Result, replayBytes(*Result));

  Promise.set_value(Result);
  {
    std::lock_guard<std::mutex> Lock(Flights->Mutex);
    Flights->Pending.erase(Key);
  }
  return Result;
}

ReplayService::ReplayPtr
ReplayService::get(uint32_t Pid, uint32_t IntervalIdx,
                   const std::vector<ReplayOverride> &Overrides) {
  ReplayKey Key{Pid, IntervalIdx, fingerprint(Overrides)};
  if (ReplayPtr Cached = Cache->lookup(Key))
    return Cached;
  return replayMiss(Key, Overrides);
}

ReplayServiceStats ReplayService::stats() const {
  ReplayServiceStats Out;
  Out.Cache = Cache->stats();
  Out.EngineReplays = EngineReplays.load(std::memory_order_relaxed);
  Out.EngineInstructions =
      EngineInstructions.load(std::memory_order_relaxed);
  Out.Buffer = Log.Pool->stats();
  return Out;
}
