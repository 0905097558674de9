//===- bench/bench_flowback.cpp - Experiment E8 ---------------------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// E8 measures the debugging-phase promise of incremental tracing (§3.2.3,
// §5.3): answering a flowback query should cost time proportional to the
// log intervals the query touches, not to the whole execution.
//
//   * `incremental_session` — execution in Logging mode; the session
//     replays only the failure interval and walks five dependence steps.
//   * `fulltrace_session`   — Balzer's strawman: the execution itself runs
//     in FullTrace mode (every process traced), then the same five-step
//     walk is free of replays. The *session* is cheap but the execution
//     paid for everything; TotalEvents counts the events materialized.
//
// The program puts the bug at the end of a run with much unrelated work,
// the paper's motivating shape (§3.1: "the user needs traces for only
// those events that may have led to the detected error").
//
// The replay-service rows measure the trace-regeneration engine itself on
// a many-interval query (the transitive set of a deep flowback):
//
//   * `flowback_cold_serial`   — every interval replayed once into an
//     empty cache: the cost of a wide query.
//   * `flowback_warm_cached`   — the same query against a warm cache:
//     every answer is a lookup. The cold/warm ratio is the price of a
//     repeat query, the paper's interactive-session common case.
//
//===----------------------------------------------------------------------===//

#include "BenchPrograms.h"

#include "core/Controller.h"
#include "vm/Machine.h"

#include <benchmark/benchmark.h>

using namespace ppd;
using namespace ppd::bench;

namespace {

std::string buggyWorkload(unsigned UnrelatedWork) {
  return R"(
shared int noise;
func churn(int n) {
  int i = 0;
  for (i = 0; i < n; i = i + 1) noise = (noise + i) % 65521;
  return noise;
}
func main() {
  int w = churn()" +
         std::to_string(UnrelatedWork) + R"();
  int d = 4;
  int z = d - 4;
  print(w / z);    // divide by zero: the failure
}
)";
}

void walkBack(PpdController &Controller, DynNodeId Start, unsigned Steps) {
  DynNodeId Node = Start;
  for (unsigned I = 0; I != Steps && Node != InvalidId; ++I) {
    DynNodeId Next = InvalidId;
    for (const DynEdge &E : Controller.dependencesOf(Node))
      if (E.Kind == DynEdgeKind::Data &&
          Controller.graph().node(E.From).Kind == DynNodeKind::Singular)
        Next = E.From;
    Node = Next;
  }
}

void incremental_session(benchmark::State &State) {
  auto Prog = mustCompile(buggyWorkload(unsigned(State.range(0))));
  MachineOptions MOpts;
  MOpts.Seed = 11;
  Machine M(*Prog, MOpts);
  M.run();
  ExecutionLog Log = M.takeLog();

  uint64_t Events = 0;
  for (auto _ : State) {
    PpdController Controller(*Prog, Log);
    DynNodeId Root = Controller.startAtFailure(0);
    walkBack(Controller, Root, 5);
    Events = Controller.stats().EventsTraced;
  }
  State.counters["TotalEvents"] = double(Events);
}

void fulltrace_session(benchmark::State &State) {
  auto Prog = mustCompile(buggyWorkload(unsigned(State.range(0))));
  MachineOptions MOpts;
  MOpts.Seed = 11;
  MOpts.Mode = RunMode::FullTrace;

  uint64_t Events = 0;
  for (auto _ : State) {
    // The strawman pays at execution time, inside the timed region.
    Machine M(*Prog, MOpts);
    M.run();
    Events = 0;
    for (const TraceBuffer &T : M.traces())
      Events += T.Events.size();
    benchmark::DoNotOptimize(Events);
  }
  State.counters["TotalEvents"] = double(Events);
}

/// The execution phase that precedes an incremental session, for an
/// apples-to-apples total: incremental total = this + incremental_session.
void incremental_execution(benchmark::State &State) {
  auto Prog = mustCompile(buggyWorkload(unsigned(State.range(0))));
  MachineOptions MOpts;
  MOpts.Seed = 11;
  for (auto _ : State) {
    Machine M(*Prog, MOpts);
    benchmark::DoNotOptimize(M.run().Steps);
  }
}

//===----------------------------------------------------------------------===//
// Replay-service variants: cold / warm
//===----------------------------------------------------------------------===//
// The workload and interval set come from BenchPrograms.h
// (manyIntervalWorkload / makeReplayWorld), shared with bench_interp's E9
// replay rows so both experiments sweep identical interval sets.

void serviceCounters(benchmark::State &State, const ReplayService &Service,
                     size_t Intervals) {
  ReplayServiceStats S = Service.stats();
  State.counters["Intervals"] = double(Intervals);
  State.counters["EngineReplays"] = double(S.EngineReplays);
  State.counters["CacheHits"] = double(S.Cache.Hits);
  State.counters["CacheBytes"] = double(S.Cache.Bytes);
}

/// Sums the events of one get() per interval of \p W.
uint64_t getAll(ReplayService &Service, const ReplayWorld &W) {
  uint64_t Events = 0;
  for (const auto &[Pid, Idx] : W.All)
    Events += Service.get(Pid, Idx)->Events.Events.size();
  return Events;
}

/// Cold: every iteration starts with an empty cache and regenerates the
/// full interval set.
void flowback_cold_serial(benchmark::State &State) {
  ReplayWorld W = makeReplayWorld(unsigned(State.range(0)));
  PagedLog Log = PagedLog::fromLog(W.Log);
  uint64_t Events = 0;
  for (auto _ : State) {
    ReplayService Service(*W.Prog, Log, *W.Index);
    Events = getAll(Service, W);
    benchmark::DoNotOptimize(Events);
  }
  // Representative of the last iteration (one full miss sweep).
  ReplayService Probe(*W.Prog, Log, *W.Index);
  benchmark::DoNotOptimize(getAll(Probe, W));
  serviceCounters(State, Probe, W.All.size());
  State.counters["TotalEvents"] = double(Events);
}

/// Warm: the cache already holds every interval; each iteration re-asks
/// the full query and must be answered entirely by lookups.
void flowback_warm_cached(benchmark::State &State) {
  ReplayWorld W = makeReplayWorld(unsigned(State.range(0)));
  ReplayService Service(*W.Prog, PagedLog::fromLog(W.Log), *W.Index);
  benchmark::DoNotOptimize(getAll(Service, W));
  for (auto _ : State)
    benchmark::DoNotOptimize(getAll(Service, W));
  serviceCounters(State, Service, W.All.size());
}

} // namespace

BENCHMARK(incremental_session)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(incremental_execution)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(fulltrace_session)->Arg(1000)->Arg(10000)->Arg(100000);

BENCHMARK(flowback_cold_serial)->Arg(32)->Arg(128);
BENCHMARK(flowback_warm_cached)->Arg(32)->Arg(128);

BENCHMARK_MAIN();
