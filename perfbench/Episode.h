//===- perfbench/Episode.h - One in-process debugging episode ---*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A debugging episode is the paper's three phases back to back, in one
/// process: compile → logged run → v2 save + `.ppdb` → cold paged open →
/// first flowback → seeded flowback walk → races. Every phase is timed
/// from outside, through the layer's public functions, and its output is
/// checked against the workload's references.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_PERFBENCH_EPISODE_H
#define PPD_PERFBENCH_EPISODE_H

#include "Trace.h"
#include "Workloads.h"

#include "compiler/CompiledProgram.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct EpisodeInput {
  const Workload *W = nullptr;
  /// The same source compiled without instrumentation: the E1 baseline
  /// the traced run's plain execution uses.
  const ppd::CompiledProgram *Plain = nullptr;
  /// Directory for the episode's log and `.ppdb`.
  std::string Dir;
  uint64_t Id = 0;
  uint64_t WalkSeed = 0;
  /// Null: untraced. Otherwise spans go here and the traced-only layer
  /// measurements run (outside the episode span).
  SpanBuffer *Spans = nullptr;
};

/// Phase timings and layer counters of one episode.
struct EpisodeResult {
  bool Correct = true;
  std::string Error; ///< first check that failed.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  // User-visible phases (ms).
  double CompileMs = 0, LoggedRunMs = 0, PersistMs = 0, OpenMs = 0,
         WalkMs = 0, RacesMs = 0, EpisodeMs = 0;
  /// Per-step walk latency (us) and whether the step replayed.
  std::vector<double> StepUs;
  std::vector<bool> StepCold;

  // Layer measurements available in every run.
  double SaveMs = 0, PpdbWriteMs = 0, StoreOpenMs = 0, PpdbReadMs = 0;
  uint64_t VmSteps = 0, Records = 0, FileBytes = 0;
  uint64_t SectionsTotal = 0, SectionsFaulted = 0;
  uint64_t PoolHits = 0, PoolLookups = 0, PoolPeakBytes = 0;
  uint64_t Replays = 0, ReplayInstructions = 0, EventsTraced = 0;
  uint64_t CacheHits = 0, CacheLookups = 0, CrossReads = 0;
  uint64_t JitCompiles = 0, JitBailouts = 0, JitCompileNs = 0;
  uint64_t Races = 0, PairsExamined = 0, ClosureNs = 0;

  // Traced-only layer measurements.
  double ParseMs = 0, CompileAstMs = 0, SemaMs = 0, ModRefMs = 0, CfgMs = 0,
         PdgMs = 0, GraphBuildMs = 0;
  /// Fastest of three Plain runs of the uninstrumented build, and of three
  /// logged runs alternated with them (the E1 overhead pair).
  double PlainRunMs = 0, LogOverheadRunMs = 0;
  uint64_t ParEdges = 0, CompilerInstrs = 0;
  double JitMinstrS = 0, DecodedMinstrS = 0;
};

EpisodeResult runEpisode(const EpisodeInput &In);

/// Compiles or returns null with the diagnostics in \p Error.
std::unique_ptr<ppd::CompiledProgram>
compileSource(const std::string &Source, bool Instrument, std::string &Error);

} // namespace perfbench

#endif // PPD_PERFBENCH_EPISODE_H
