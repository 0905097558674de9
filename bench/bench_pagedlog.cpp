//===- bench/bench_pagedlog.cpp - Experiment E11 --------------------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// E11 measures the cold-open promise of the paged log tier (DESIGN.md
// §12): the time from "the debugger is pointed at a log file" to "the
// first flowback query is answered". The paper's debugging phase begins
// with the program database and the log already on disk; what a user
// feels is exactly this open-to-first-query latency.
//
//   * `coldopen_pooled`      — PageStore::open (pread header walk),
//     skim-build the index from encoded bytes, then answer the query by
//     faulting in only the one section it touches.
//   * `coldopen_pooled_ppdb` — the same, but a warm `.ppdb` sidecar
//     replaces even the skim: open, validate the sidecar, adopt its
//     persisted index, fault in one section, answer.
//
// The first query (startAtLastEvent on the main process) replays one
// interval of one process, so one section of Workers+1 is decoded either
// way: without the sidecar, the parallel dynamic graph is built from a
// skim of every section outside the pool. PoolResidentBytes/PoolPeakBytes
// counters show the residency bound; process-wide peak RSS must be
// measured per-row in separate processes (see EXPERIMENTS.md E11
// methodology).
//
//===----------------------------------------------------------------------===//

#include "BenchPrograms.h"

#include "core/Controller.h"
#include "log/BufferPool.h"
#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "vm/Machine.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include <unistd.h>

using namespace ppd;
using namespace ppd::bench;

namespace {

/// Process-wide peak resident set (VmHWM), in bytes. Meaningful only
/// when one row runs per process (`--benchmark_filter=coldopen_...`),
/// the E11 methodology — rows sharing a process see the max of all
/// earlier rows.
double peakRssBytes() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  long KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %ld kB", &KiB) == 1)
      break;
  std::fclose(F);
  return double(KiB) * 1024.0;
}

/// Workers+1 processes, each with many sibling intervals: the log has
/// Workers+1 independent v2 sections, and a query on the main process
/// needs exactly one of them. Spawn statements are unrolled so every
/// worker is a distinct process section.
std::string pagedWorkload(unsigned Workers, unsigned UnitsPerWorker) {
  std::string Source = R"(
shared int acc;
sem done;
func unit(int k) {
  int i = 0;
  int s = 0;
  for (i = 0; i < 60; i = i + 1) s = (s + k * i) % 9973;
  return s;
}
func worker(int w) {
  int j = 0;
  int s = 0;
  for (j = 0; j < )" +
                       std::to_string(UnitsPerWorker) +
                       R"(; j = j + 1) s = s + unit(w * 1000 + j);
  acc = acc + s;
  V(done);
}
func main() {
)";
  for (unsigned W = 0; W != Workers; ++W)
    Source += "  spawn worker(" + std::to_string(W) + ");\n";
  for (unsigned W = 0; W != Workers; ++W)
    Source += "  P(done);\n";
  Source += "  print(acc);\n}\n";
  return Source;
}

/// One saved log per (Workers, Units) argument pair, shared by all three
/// rows so their open costs are over identical bytes. The `.ppdb` is
/// written once here; the ppdb row's timed region re-reads and
/// re-validates it every iteration (that *is* the warm-open cost).
struct ColdOpenWorld {
  std::unique_ptr<CompiledProgram> Prog;
  std::string LogPath;
  std::string DbPath;
  size_t FileBytes = 0;
  uint32_t Sections = 0;

  ColdOpenWorld(unsigned Workers, unsigned UnitsPerWorker) {
    Prog = mustCompile(pagedWorkload(Workers, UnitsPerWorker));
    MachineOptions MOpts;
    MOpts.Seed = 11;
    Machine M(*Prog, MOpts);
    M.run();
    ExecutionLog Log = M.takeLog();
    LogPath = "/tmp/ppd_bench_e11_" + std::to_string(::getpid()) + "_" +
              std::to_string(Workers) + ".log";
    if (!Log.save(LogPath, LogFormat::V2)) {
      std::fprintf(stderr, "E11: cannot save %s\n", LogPath.c_str());
      std::abort();
    }
    std::string Error;
    auto Store = PageStore::open(LogPath, &Error);
    if (!Store) {
      std::fprintf(stderr, "E11: %s\n", Error.c_str());
      std::abort();
    }
    FileBytes = Store->fileBytes();
    Sections = Store->numProcs();
    LogIndex Index(*Store);
    DbPath = programDbPathFor(LogPath);
    if (!writeProgramDb(DbPath, *Prog, *Store, Index)) {
      std::fprintf(stderr, "E11: cannot write %s\n", DbPath.c_str());
      std::abort();
    }
  }

  ~ColdOpenWorld() {
    std::remove(LogPath.c_str());
    std::remove(DbPath.c_str());
  }
};

void coldopen_pooled(benchmark::State &State) {
  ColdOpenWorld W(unsigned(State.range(0)), unsigned(State.range(1)));
  BufferPoolStats Last;
  for (auto _ : State) {
    std::string Error;
    auto Store = PageStore::open(W.LogPath, &Error);
    if (!Store)
      State.SkipWithError(Error.c_str());
    auto Pool = std::make_shared<BufferPool>(size_t(256) << 20);
    PpdController Controller(*W.Prog, PagedLog{Store, Pool});
    benchmark::DoNotOptimize(Controller.startAtLastEvent(0));
    Last = Pool->stats();
  }
  State.counters["FileBytes"] = double(W.FileBytes);
  State.counters["Sections"] = double(W.Sections);
  State.counters["PoolResidentBytes"] = double(Last.BytesResident);
  State.counters["PoolPeakBytes"] = double(Last.PeakBytes);
  State.counters["SectionsFaulted"] = double(Last.Insertions);
  State.counters["PeakRSSBytes"] = peakRssBytes();
}

void coldopen_pooled_ppdb(benchmark::State &State) {
  ColdOpenWorld W(unsigned(State.range(0)), unsigned(State.range(1)));
  BufferPoolStats Last;
  for (auto _ : State) {
    std::string Error;
    auto Store = PageStore::open(W.LogPath, &Error);
    if (!Store)
      State.SkipWithError(Error.c_str());
    std::shared_ptr<const LogIndex> Index;
    std::shared_ptr<const ParallelDynamicGraph> Graph;
    if (readProgramDb(W.DbPath, *W.Prog, *Store, Index, &Graph) !=
        ProgramDbStatus::Ok)
      State.SkipWithError("sidecar not warm");
    auto Pool = std::make_shared<BufferPool>(size_t(256) << 20);
    PpdControllerOptions COpts;
    COpts.AdoptedGraph = std::move(Graph);
    PpdController Controller(*W.Prog, PagedLog{Store, Pool},
                             std::move(Index), COpts);
    benchmark::DoNotOptimize(Controller.startAtLastEvent(0));
    Last = Pool->stats();
  }
  State.counters["FileBytes"] = double(W.FileBytes);
  State.counters["Sections"] = double(W.Sections);
  State.counters["PoolResidentBytes"] = double(Last.BytesResident);
  State.counters["PoolPeakBytes"] = double(Last.PeakBytes);
  State.counters["SectionsFaulted"] = double(Last.Insertions);
  State.counters["PeakRSSBytes"] = peakRssBytes();
}

} // namespace

// Args: {Workers, UnitsPerWorker}. {8,64} is a mid-size log; {32,128} is
// the largest log any bench generates, the E11 headline row.
BENCHMARK(coldopen_pooled)->Args({8, 64})->Args({32, 128})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(coldopen_pooled_ppdb)->Args({8, 64})->Args({32, 128})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
