//===- bench/bench_interp.cpp - Interpreter dispatch throughput -----------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// Dispatch-bound microbenchmarks for the execution engine itself, the cost
// center under every experiment row (E1 emit rate, E2 tracing-vs-logging,
// E8b flowback replay). Each workload runs on the VM's threaded
// interpreter over the pre-decoded stream (mode-specialized loop); the
// counter reports million instructions per second.
//
// Workloads:
//  * arith     — tight arithmetic/branch loop: pure dispatch, the fusion
//                (compare+branch, push-const+store) best case;
//  * calls     — call-heavy recursion (fib): frame push/pop, the per-
//                process slot arena's best case;
//  * array     — array sweep: indexed loads/stores with bounds checks;
//  * sched     — main plus N compute workers at the default quantum (8):
//                one scheduler round per 8 steps, so it measures the
//                round (runnable set, PRNG draw, process switch) as much
//                as dispatch.
//
// The replay_* rows measure the replay interpreter: replay_compute_* on
// compute-heavy e-blocks (dispatch-bound), replay_interval_* on the E8b
// manyIntervalWorkload (trace-event-bound, shared with bench_flowback).
// Each iteration is one full-interval sweep.
//
//===----------------------------------------------------------------------===//

#include "BenchPrograms.h"

#include "core/Replay.h"
#include "vm/Machine.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace ppd;
using namespace ppd::bench;

namespace {

std::string recursionWorkload(unsigned Depth, unsigned Reps) {
  return R"(
func fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
func main() {
  int i = 0;
  int acc = 0;
  for (i = 0; i < )" +
         std::to_string(Reps) + R"(; i = i + 1) acc = acc + fib()" +
         std::to_string(Depth) + R"();
  print(acc);
}
)";
}

std::string arraySweepWorkload(unsigned Sweeps) {
  return R"(
func main() {
  int a[256];
  int i = 0;
  int k = 0;
  int sum = 0;
  for (k = 0; k < )" +
         std::to_string(Sweeps) + R"(; k = k + 1)
    for (i = 0; i < 256; i = i + 1)
      a[i] = a[i] + i + k;
  for (i = 0; i < 256; i = i + 1) sum = sum + a[i];
  print(sum);
}
)";
}

/// Main spawns \p Workers compute workers (the computeWorkload loop, \p
/// Iters iterations each) and waits for them on a semaphore.
std::string schedWorkload(unsigned Workers, unsigned Iters) {
  return R"(
sem done;
func worker(int w) {
  int i = 0;
  int acc = w + 1;
  while (i < )" +
         std::to_string(Iters) + R"() {
    acc = (acc * 31 + i) % 1000003;
    if (acc % 2 == 0) acc = acc + 7;
    i = i + 1;
  }
  print(acc);
  V(done);
}
func main() {
  int i = 0;
  for (i = 0; i < )" +
         std::to_string(Workers) + R"(; i = i + 1) spawn worker(i);
  for (i = 0; i < )" +
         std::to_string(Workers) + R"(; i = i + 1) P(done);
}
)";
}

/// Runs \p Source in \p Mode and reports Minstr/sec (one instruction is
/// one step). The default large quantum keeps the scheduler out of the
/// measurement (those workloads are single-process, so the interleaving
/// is unaffected).
void interpBench(benchmark::State &State, const std::string &Source,
                 RunMode Mode, uint32_t Quantum = 1024) {
  auto Prog = mustCompile(Source);

  MachineOptions MOpts;
  MOpts.Mode = Mode;
  MOpts.Seed = 11;
  MOpts.Quantum = Quantum;

  using Clock = std::chrono::steady_clock;
  double Seconds = 0;
  uint64_t Steps = 0;
  for (auto _ : State) {
    auto T0 = Clock::now();
    Machine M(*Prog, MOpts);
    RunResult Result = M.run();
    auto T1 = Clock::now();
    if (Result.Outcome != RunResult::Status::Completed) {
      std::fprintf(stderr, "benchmark workload did not complete\n");
      std::abort();
    }
    Steps = Result.Steps;
    Seconds += std::chrono::duration<double>(T1 - T0).count();
    State.SetIterationTime(std::chrono::duration<double>(T1 - T0).count());
  }

  double Iters = double(State.iterations());
  State.counters["MinstrPerSecDecoded"] =
      benchmark::Counter(1e-6 * double(Steps) * Iters / Seconds);
  State.counters["VmSteps"] = double(Steps);
}

std::string arith(unsigned N) { return computeWorkload(N); }

void arith_plain(benchmark::State &State) {
  interpBench(State, arith(unsigned(State.range(0))), RunMode::Plain);
}
void arith_logging(benchmark::State &State) {
  interpBench(State, arith(unsigned(State.range(0))), RunMode::Logging);
}
void arith_fulltrace(benchmark::State &State) {
  interpBench(State, arith(unsigned(State.range(0))), RunMode::FullTrace);
}

void calls_plain(benchmark::State &State) {
  interpBench(State, recursionWorkload(unsigned(State.range(0)), 50),
              RunMode::Plain);
}
void calls_logging(benchmark::State &State) {
  interpBench(State, recursionWorkload(unsigned(State.range(0)), 50),
              RunMode::Logging);
}
void calls_fulltrace(benchmark::State &State) {
  interpBench(State, recursionWorkload(unsigned(State.range(0)), 50),
              RunMode::FullTrace);
}

void array_plain(benchmark::State &State) {
  interpBench(State, arraySweepWorkload(unsigned(State.range(0))),
              RunMode::Plain);
}
void array_logging(benchmark::State &State) {
  interpBench(State, arraySweepWorkload(unsigned(State.range(0))),
              RunMode::Logging);
}
void array_fulltrace(benchmark::State &State) {
  interpBench(State, arraySweepWorkload(unsigned(State.range(0))),
              RunMode::FullTrace);
}

void sched_logging(benchmark::State &State) {
  interpBench(State, schedWorkload(unsigned(State.range(0)), 2000),
              RunMode::Logging, MachineOptions().Quantum);
}

//===----------------------------------------------------------------------===//
// Replay throughput (E9)
//===----------------------------------------------------------------------===//

/// Replay throughput: every closed interval of the world replayed per
/// iteration, after one untimed warm-up sweep.
void replayBench(benchmark::State &State, const std::string &Source) {
  ReplayWorld W = makeReplayWorldFor(Source);
  ReplayEngine Engine(*W.Prog);
  uint64_t Instructions = sweepIntervals(Engine, W); // warm-up
  for (auto _ : State) {
    uint64_t Sum = sweepIntervals(Engine, W);
    if (Sum != Instructions) {
      std::fprintf(stderr, "replay sweep not idempotent\n");
      std::abort();
    }
    benchmark::DoNotOptimize(Sum);
  }
  State.counters["MinstrPerSec"] = benchmark::Counter(
      1e-6 * double(Instructions) * double(State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["Intervals"] = double(W.All.size());
}

// The compute_* rows replay compute-heavy e-blocks (long chained
// arithmetic per statement — dispatch-bound); the interval_* rows replay
// the E8b manyIntervalWorkload (short statements — trace-event-bound,
// shared with bench_flowback).
void replay_compute_decoded(benchmark::State &State) {
  replayBench(State, computeHeavyUnitWorkload(unsigned(State.range(0)),
                                              unsigned(State.range(1))));
}
void replay_interval_decoded(benchmark::State &State) {
  replayBench(State, manyIntervalWorkload(unsigned(State.range(0)),
                                          unsigned(State.range(1))));
}

} // namespace

BENCHMARK(arith_plain)->Arg(20000)->Arg(200000)->UseManualTime();
BENCHMARK(arith_logging)->Arg(20000)->Arg(200000)->UseManualTime();
BENCHMARK(arith_fulltrace)->Arg(20000)->UseManualTime();

BENCHMARK(calls_plain)->Arg(12)->Arg(16)->UseManualTime();
BENCHMARK(calls_logging)->Arg(12)->UseManualTime();
BENCHMARK(calls_fulltrace)->Arg(12)->UseManualTime();

BENCHMARK(array_plain)->Arg(100)->Arg(1000)->UseManualTime();
BENCHMARK(array_logging)->Arg(100)->Arg(1000)->UseManualTime();
BENCHMARK(array_fulltrace)->Arg(100)->UseManualTime();

// Workers: main plus 16 at the default quantum, the sync_races shape
// without its synchronization.
BENCHMARK(sched_logging)->Arg(16)->UseManualTime();

// (units, inner loop iterations): compute rows are 32 e-blocks of ~2.2k
// mostly-arithmetic instructions each; interval rows are the E8b shape
// (60 short-statement iterations per unit), shared with bench_flowback.
BENCHMARK(replay_compute_decoded)->Args({32, 40});
BENCHMARK(replay_interval_decoded)->Args({32, 60});

BENCHMARK_MAIN();
