//===- bench/bench_tracing_vs_logging.cpp - Experiment E2 -----------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// E2 quantifies the paper's core motivation (§3.1): tracing *every* event
// during execution — Balzer's original flowback scheme — is expensive in
// time and space, while incremental tracing generates only the small log.
//
//   * `logging`   — the execution phase proper (incremental tracing's
//                   run-time cost); the Bytes counter is the log volume.
//   * `fulltrace` — the strawman: the emulation package runs for every
//                   process during execution, recording one TraceEvent per
//                   statement; Bytes is the trace volume.
//
// The paper predicts fulltrace ≫ logging on both axes, with the gap
// growing with the amount of computation between synchronization points.
//
//===----------------------------------------------------------------------===//

#include "BenchPrograms.h"

#include "vm/Machine.h"

#include <benchmark/benchmark.h>

using namespace ppd;
using namespace ppd::bench;

namespace {

void runMode(benchmark::State &State, const std::string &Source,
             RunMode Mode) {
  auto Prog = mustCompile(Source);
  MachineOptions MOpts;
  MOpts.Mode = Mode;
  MOpts.Seed = 11;

  size_t Bytes = 0;
  uint64_t Events = 0;
  ExecutionLog FinalLog;
  for (auto _ : State) {
    Machine M(*Prog, MOpts);
    RunResult Result = M.run();
    benchmark::DoNotOptimize(Result.Steps);
    if (Mode == RunMode::FullTrace) {
      Bytes = 0;
      Events = 0;
      for (const TraceBuffer &T : M.traces()) {
        Bytes += T.byteSize();
        Events += T.Events.size();
      }
      // Balzer still needs the sync events for cross-process ordering.
      Bytes += M.log().byteSize();
    } else {
      Bytes = M.log().byteSize();
      Events = 0;
      for (const ProcessLog &P : M.log().Procs)
        Events += P.Records.size();
      FinalLog = M.takeLog();
    }
  }
  State.counters["Bytes"] = double(Bytes);
  State.counters["EventsOrRecords"] = double(Events);
  if (Events != 0)
    State.counters["BytesPerEvent"] = double(Bytes) / double(Events);
  State.counters["EventsPerSec"] = benchmark::Counter(
      double(Events) * double(State.iterations()), benchmark::Counter::kIsRate);

  if (Mode != RunMode::Logging)
    return;
  // E2's save/load methodology columns: on-disk volume and throughput of
  // the log.
  SaveLoadStats V2 = measureSaveLoad(FinalLog);
  State.counters["FileBytesV2"] = double(V2.FileBytes);
  State.counters["SaveMsV2"] = V2.SaveMs;
  State.counters["LoadMsV2"] = V2.LoadMs;
  State.counters["SaveMBpsV2"] = V2.SaveMBps;
  State.counters["LoadMBpsV2"] = V2.LoadMBps;
}

void compute_logging(benchmark::State &State) {
  runMode(State, computeWorkload(unsigned(State.range(0))),
          RunMode::Logging);
}
void compute_fulltrace(benchmark::State &State) {
  runMode(State, computeWorkload(unsigned(State.range(0))),
          RunMode::FullTrace);
}
void calls_logging(benchmark::State &State) {
  runMode(State, callsWorkload(unsigned(State.range(0))), RunMode::Logging);
}
void calls_fulltrace(benchmark::State &State) {
  runMode(State, callsWorkload(unsigned(State.range(0))),
          RunMode::FullTrace);
}
void sync_logging(benchmark::State &State) {
  runMode(State, syncWorkload(unsigned(State.range(0))), RunMode::Logging);
}
void sync_fulltrace(benchmark::State &State) {
  runMode(State, syncWorkload(unsigned(State.range(0))),
          RunMode::FullTrace);
}

} // namespace

BENCHMARK(compute_logging)->Arg(2000)->Arg(20000);
BENCHMARK(compute_fulltrace)->Arg(2000)->Arg(20000);
BENCHMARK(calls_logging)->Arg(500)->Arg(5000);
BENCHMARK(calls_fulltrace)->Arg(500)->Arg(5000);
BENCHMARK(sync_logging)->Arg(250)->Arg(2500);
BENCHMARK(sync_fulltrace)->Arg(250)->Arg(2500);

BENCHMARK_MAIN();
