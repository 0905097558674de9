//===- bench/BenchPrograms.h - Shared benchmark workloads -------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PPL workload generators shared by the benchmark binaries. Each stresses
/// a different cost center of the logging instrumentation:
///
///  * compute   — tight arithmetic loops: instrumentation is amortized
///                over many uninstrumented instructions (the paper's best
///                case for the <15% claim);
///  * calls     — many small subroutine invocations: one prelog+postlog
///                per call, the worst case §5.4's knobs exist for;
///  * sync      — semaphore-heavy critical sections: unit logs dominate;
///  * pipeline  — multi-process message flow.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_BENCH_BENCHPROGRAMS_H
#define PPD_BENCH_BENCHPROGRAMS_H

#include "compiler/Compiler.h"
#include "core/Replay.h"
#include "log/ExecutionLog.h"
#include "log/LogIO.h"
#include "vm/Machine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace ppd::bench {

inline std::string computeWorkload(unsigned Iters) {
  return R"(
func main() {
  int i = 0;
  int acc = 1;
  while (i < )" +
         std::to_string(Iters) + R"() {
    acc = (acc * 31 + i) % 1000003;
    if (acc % 2 == 0) acc = acc + 7;
    i = i + 1;
  }
  print(acc);
}
)";
}

inline std::string callsWorkload(unsigned Calls) {
  return R"(
shared int total;
func step(int x) {
  total = total + x % 17;
  return total;
}
func main() {
  int i = 0;
  int last = 0;
  for (i = 0; i < )" +
         std::to_string(Calls) + R"(; i = i + 1) last = step(i);
  print(last);
}
)";
}

inline std::string syncWorkload(unsigned Rounds) {
  return R"(
shared int counter;
sem lock = 1;
sem done;
func worker(int rounds) {
  int i = 0;
  for (i = 0; i < rounds; i = i + 1) {
    P(lock);
    counter = counter + 1;
    V(lock);
  }
  V(done);
}
func main() {
  spawn worker()" +
         std::to_string(Rounds) + R"();
  spawn worker()" +
         std::to_string(Rounds) + R"();
  P(done);
  P(done);
  print(counter);
}
)";
}

inline std::string pipelineWorkload(unsigned Messages) {
  return R"(
chan stage1[8];
chan stage2[8];
func transform() {
  int i = 0;
  for (i = 0; i < )" +
         std::to_string(Messages) + R"(; i = i + 1)
    send(stage2, recv(stage1) * 3 + 1);
}
func main() {
  spawn transform();
  int i = 0;
  int sum = 0;
  for (i = 0; i < )" +
         std::to_string(Messages) + R"(; i = i + 1) {
    send(stage1, i);
    sum = sum + recv(stage2);
  }
  print(sum);
}
)";
}

/// A realistic mix (the shape the paper's <15% claim was measured on):
/// compute-dominated workers that synchronize once per \p Grain loop
/// iterations.
inline std::string mixedWorkload(unsigned Rounds, unsigned Grain) {
  std::string G = std::to_string(Grain);
  return R"(
shared int checkpoint;
sem lock = 1;
sem done;
func worker(int rounds) {
  int r = 0;
  int acc = 1;
  for (r = 0; r < rounds; r = r + 1) {
    int i = 0;
    while (i < )" + G + R"() {
      acc = (acc * 31 + i) % 1000003;
      i = i + 1;
    }
    P(lock);
    checkpoint = checkpoint + acc % 101;
    V(lock);
  }
  V(done);
}
func main() {
  spawn worker()" + std::to_string(Rounds) + R"();
  spawn worker()" + std::to_string(Rounds) + R"();
  P(done);
  P(done);
  print(checkpoint);
}
)";
}

/// The save+load cost of a given log (experiment E2's
/// methodology columns: on-disk volume, wall time, and throughput).
struct SaveLoadStats {
  size_t FileBytes = 0;
  double SaveMs = 0;  ///< mean wall time of one save.
  double LoadMs = 0;  ///< mean wall time of one load.
  double SaveMBps = 0;
  double LoadMBps = 0;
};

/// Times \p Reps save+load round trips of \p Log and keeps the fastest
/// of each (minimum-of-reps filters scheduler and page-cache noise out of
/// millisecond-scale operations).
inline SaveLoadStats measureSaveLoad(const ExecutionLog &Log,
                                     unsigned Reps = 15) {
  std::string Path = "/tmp/ppd_bench_saveload.bin";
  using Clock = std::chrono::steady_clock;
  double SaveSeconds = 1e30, LoadSeconds = 1e30;
  for (unsigned I = 0; I != Reps; ++I) {
    auto T0 = Clock::now();
    bool Saved = Log.save(Path, LogFormat::V2);
    auto T1 = Clock::now();
    ExecutionLog Loaded;
    bool LoadedOk = Saved && ExecutionLog::load(Path, Loaded);
    auto T2 = Clock::now();
    if (!LoadedOk) {
      std::fprintf(stderr, "benchmark save/load round trip failed\n");
      std::abort();
    }
    SaveSeconds =
        std::min(SaveSeconds, std::chrono::duration<double>(T1 - T0).count());
    LoadSeconds =
        std::min(LoadSeconds, std::chrono::duration<double>(T2 - T1).count());
  }
  SaveLoadStats Stats;
  std::vector<uint8_t> Bytes;
  if (readFileBytes(Path, Bytes))
    Stats.FileBytes = Bytes.size();
  std::remove(Path.c_str());
  Stats.SaveMs = 1e3 * SaveSeconds;
  Stats.LoadMs = 1e3 * LoadSeconds;
  double MB = double(Stats.FileBytes) / 1e6;
  if (SaveSeconds > 0)
    Stats.SaveMBps = MB / SaveSeconds;
  if (LoadSeconds > 0)
    Stats.LoadMBps = MB / LoadSeconds;
  return Stats;
}

/// Compiles or aborts — benchmark setup code.
inline std::unique_ptr<CompiledProgram>
mustCompile(const std::string &Source, const CompileOptions &Options = {}) {
  DiagnosticEngine Diags;
  auto Prog = Compiler::compile(Source, Options, Diags);
  if (!Prog) {
    std::fprintf(stderr, "benchmark program failed to compile:\n%s",
                 Diags.str().c_str());
    std::abort();
  }
  return Prog;
}

//===----------------------------------------------------------------------===//
// Shared replay-phase world: the E8b and E9 replay rows regenerate the
// same interval sets from the same generator, so their cold/warm numbers
// are comparable across binaries.
//===----------------------------------------------------------------------===//

/// Many sibling intervals under main: each unit() call is its own logged
/// interval of ~6*InnerIters mostly-compute instructions, so a query over
/// all of them replays many independent intervals.
inline std::string manyIntervalWorkload(unsigned Units,
                                        unsigned InnerIters = 60) {
  return R"(
func unit(int k) {
  int i = 0;
  int s = 0;
  for (i = 0; i < )" +
         std::to_string(InnerIters) + R"(; i = i + 1) s = (s + k * i) % 9973;
  return s;
}
func main() {
  int j = 0;
  int acc = 0;
  for (j = 0; j < )" +
         std::to_string(Units) + R"(; j = j + 1) acc = acc + unit(j);
  print(acc);
}
)";
}

/// E9's "compute-heavy e-block" row: the same many-interval shape as
/// manyIntervalWorkload, but each loop iteration is two statements of
/// long chained arithmetic (~45 instructions per traced statement instead
/// of ~3). Replay cost here is dispatch-bound rather than
/// trace-event-bound; the manyIntervalWorkload rows show the event-bound
/// other end.
inline std::string computeHeavyUnitWorkload(unsigned Units,
                                            unsigned InnerIters = 40) {
  return R"(
func unit(int k) {
  int i = 0;
  int s = k + 1;
  for (i = 0; i < )" +
         std::to_string(InnerIters) + R"(; i = i + 1) {
    s = ((((((((((((((((((((s * 31 + 7) * 17 + 5) * 13 + 3) * 11 + 2)
        * 7 + 1) * 29 + 4) * 23 + 6) * 19 + 8) * 5 + 9) * 3 + 2)
        * 31 + 6) * 17 + 2) * 13 + 8) * 11 + 4) * 7 + 9) * 29 + 1)
        * 23 + 5) * 19 + 3) * 5 + 7) * 3 + 4) % 999983;
    s = ((((((((((((((((((((s * 29 + 1) * 23 + 4) * 19 + 6) * 5 + 8)
        * 3 + 9) * 31 + 3) * 17 + 5) * 13 + 7) * 11 + 1) * 7 + 6)
        * 29 + 2) * 23 + 8) * 19 + 4) * 5 + 1) * 3 + 5) * 31 + 9)
        * 17 + 7) * 13 + 2) * 11 + 3) * 7 + 8) % 999979;
  }
  return s;
}
func main() {
  int j = 0;
  int acc = 0;
  for (j = 0; j < )" +
         std::to_string(Units) + R"(; j = j + 1) acc = acc + unit(j);
  print(acc);
}
)";
}

/// A compiled program, its execution log, and every closed interval — the
/// fixed input of one replay benchmark.
struct ReplayWorld {
  std::unique_ptr<CompiledProgram> Prog;
  ExecutionLog Log;
  std::unique_ptr<LogIndex> Index;
  std::vector<std::pair<uint32_t, uint32_t>> All;
};

inline ReplayWorld makeReplayWorldFor(const std::string &Source) {
  ReplayWorld W;
  W.Prog = mustCompile(Source);
  MachineOptions MOpts;
  MOpts.Seed = 11;
  Machine M(*W.Prog, MOpts);
  M.run();
  W.Log = M.takeLog();
  W.Index = std::make_unique<LogIndex>(W.Log);
  for (uint32_t Pid = 0; Pid != W.Log.Procs.size(); ++Pid)
    for (const LogInterval &Interval : W.Index->intervals(Pid))
      if (Interval.PostlogRecord != InvalidId)
        W.All.push_back({Pid, Interval.Index});
  return W;
}

inline ReplayWorld makeReplayWorld(unsigned Units, unsigned InnerIters = 60) {
  return makeReplayWorldFor(manyIntervalWorkload(Units, InnerIters));
}

/// One full sweep: replays every closed interval of \p W and returns the
/// instructions retired.
inline uint64_t sweepIntervals(ReplayEngine &Engine, const ReplayWorld &W) {
  uint64_t Instructions = 0;
  for (const auto &[Pid, Idx] : W.All) {
    ReplayResult R = Engine.replay(W.Log, Pid, W.Index->intervals(Pid)[Idx]);
    if (!R.Ok) {
      std::fprintf(stderr, "benchmark replay failed: %s\n", R.Error.c_str());
      std::abort();
    }
    Instructions += R.Instructions;
  }
  return Instructions;
}

} // namespace ppd::bench

#endif // PPD_BENCH_BENCHPROGRAMS_H
