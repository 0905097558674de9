//===- bench/bench_logging_overhead.cpp - Experiment E1 -------------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// E1 reproduces the paper's only quantitative claim (§7):
//
//   "Our measurements show that the tracing added less than 15% to the
//    program execution time."
//
// Each iteration runs the workload twice, back to back: once as the
// uninstrumented baseline (object code compiled without instrumentation,
// Plain mode) and once as the execution phase proper (instrumented object
// code, Logging mode). Interleaving the two inside one timing loop cancels
// CPU-frequency drift; the OverheadPct counter is the paper's number, and
// LogBytes the log volume per run.
//
// The `calls_inherited` row shows §5.4's leaf-inheritance knob rescuing
// the call-dominated worst case.
//
//===----------------------------------------------------------------------===//

#include "BenchPrograms.h"

#include "vm/Machine.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace ppd;
using namespace ppd::bench;

namespace {

void overheadBench(benchmark::State &State, const std::string &Source,
                   CompileOptions COpts = {}) {
  CompileOptions BaseOpts = COpts;
  BaseOpts.Instrument = false;
  auto Baseline = mustCompile(Source, BaseOpts);
  COpts.Instrument = true;
  auto Instrumented = mustCompile(Source, COpts);

  MachineOptions BaseMode;
  BaseMode.Mode = RunMode::Plain;
  BaseMode.Seed = 11;
  MachineOptions LogMode;
  LogMode.Mode = RunMode::Logging;
  LogMode.Seed = 11;

  auto RunOnce = [](const CompiledProgram &Prog, const MachineOptions &MOpts,
                    size_t *LogBytes, ExecutionLog *OutLog) {
    Machine M(Prog, MOpts);
    RunResult Result = M.run();
    if (Result.Outcome != RunResult::Status::Completed) {
      std::fprintf(stderr, "benchmark workload did not complete\n");
      std::abort();
    }
    if (LogBytes)
      *LogBytes = M.log().byteSize();
    if (OutLog)
      *OutLog = M.takeLog();
    return Result.Steps;
  };

  using Clock = std::chrono::steady_clock;
  double BaseSeconds = 0, LogSeconds = 0;
  size_t LogBytes = 0;
  uint64_t Steps = 0;
  ExecutionLog FinalLog;
  for (auto _ : State) {
    auto T0 = Clock::now();
    Steps = RunOnce(*Baseline, BaseMode, nullptr, nullptr);
    auto T1 = Clock::now();
    RunOnce(*Instrumented, LogMode, &LogBytes, &FinalLog);
    auto T2 = Clock::now();
    BaseSeconds += std::chrono::duration<double>(T1 - T0).count();
    LogSeconds += std::chrono::duration<double>(T2 - T1).count();
    State.SetIterationTime(
        std::chrono::duration<double>(T2 - T0).count());
  }
  State.counters["BaselineMs"] =
      benchmark::Counter(1e3 * BaseSeconds / double(State.iterations()));
  State.counters["LoggingMs"] =
      benchmark::Counter(1e3 * LogSeconds / double(State.iterations()));
  double OverheadPct = 100.0 * (LogSeconds / BaseSeconds - 1.0);
  State.counters["OverheadPct"] = benchmark::Counter(OverheadPct);
  // The paper's §7 bound, as a pass/fail flag the E1 table can aggregate
  // (1 when this workload's logging overhead stayed under 15%), plus the
  // measured overhead as a percentage OF that bound — 100 means exactly at
  // the limit, so the margin is readable without mental arithmetic.
  State.counters["WithinPaperBound"] =
      benchmark::Counter(OverheadPct < 15.0 ? 1.0 : 0.0);
  State.counters["PctOfPaperBound"] =
      benchmark::Counter(100.0 * OverheadPct / 15.0);
  State.counters["LogBytes"] = double(LogBytes);
  State.counters["VmSteps"] = double(Steps);

  // Log volume and emit throughput per event (E2 methodology columns).
  uint64_t Records = 0;
  for (const ProcessLog &P : FinalLog.Procs)
    Records += P.Records.size();
  State.counters["LogRecords"] = double(Records);
  if (Records != 0)
    State.counters["BytesPerEvent"] = double(LogBytes) / double(Records);
  if (LogSeconds > 0)
    State.counters["EmitEventsPerSec"] =
        double(Records) * double(State.iterations()) / LogSeconds;

  // The on-disk log, measured on the last run's log: file volume and
  // save+load throughput.
  SaveLoadStats V2 = measureSaveLoad(FinalLog);
  State.counters["FileBytesV2"] = double(V2.FileBytes);
  State.counters["SaveMBpsV2"] = V2.SaveMBps;
  State.counters["LoadMBpsV2"] = V2.LoadMBps;
}

void compute(benchmark::State &State) {
  overheadBench(State, computeWorkload(unsigned(State.range(0))));
}
void mixed(benchmark::State &State) {
  overheadBench(State, mixedWorkload(unsigned(State.range(0)), 200));
}
void calls(benchmark::State &State) {
  overheadBench(State, callsWorkload(unsigned(State.range(0))));
}
void calls_inherited(benchmark::State &State) {
  CompileOptions COpts;
  COpts.EBlocks.LeafInheritance = true;
  overheadBench(State, callsWorkload(unsigned(State.range(0))), COpts);
}
void sync(benchmark::State &State) {
  overheadBench(State, syncWorkload(unsigned(State.range(0))));
}
void pipeline(benchmark::State &State) {
  overheadBench(State, pipelineWorkload(unsigned(State.range(0))));
}

} // namespace

BENCHMARK(compute)->Arg(2000)->Arg(20000)->UseManualTime();
BENCHMARK(mixed)->Arg(20)->Arg(100)->UseManualTime();
BENCHMARK(calls)->Arg(500)->Arg(5000)->UseManualTime();
BENCHMARK(calls_inherited)->Arg(500)->Arg(5000)->UseManualTime();
BENCHMARK(sync)->Arg(250)->Arg(2500)->UseManualTime();
BENCHMARK(pipeline)->Arg(250)->Arg(2500)->UseManualTime();

BENCHMARK_MAIN();
