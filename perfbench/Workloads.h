//===- perfbench/Workloads.h - Seeded workload generators -------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads. Each generator turns a seed into PPL source
/// text plus the references the output checks compare against. The
/// references come from a C++ evaluation of the generator's own formulas,
/// never from the VM. A seed changes constants and which workers carry
/// the planted races, never the program's shape, so the dynamic
/// instruction count is the same for every seed.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_PERFBENCH_WORKLOADS_H
#define PPD_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// How the seeded flowback walk moves through the dynamic graph.
struct WalkShape {
  /// Steps per episode.
  unsigned Steps = 100;
  /// Chance (per mille) of descending into a freshly expanded callee
  /// instead of continuing along the caller's chain.
  unsigned DescendPerMille = 0;
  /// Chance (per mille) of following a random data dependence instead
  /// of the first one.
  unsigned SidePerMille = 0;
};

struct Workload {
  std::string Source;
  /// Expected `print` values per pid, in order.
  std::map<uint32_t, std::vector<int64_t>> Output;
  /// The run ends in a runtime error in main (session starts at failure).
  bool ExpectFailure = false;
  /// Shared variables the race detector must report, and shared
  /// variables it must not (accessed only under a lock).
  std::set<std::string> RacyVars;
  std::set<std::string> LockedVars;
  WalkShape Walk;
};

/// Generates \p Name for \p Seed. \p Smoke selects the minimum size.
/// Returns false for an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed, bool Smoke,
                  Workload &Out);

/// One SplitMix64 step: the benchmark's only source of randomness, so a
/// seed fixes every choice the generators, the walk and the request mix
/// make.
inline uint64_t splitMix64(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// FNV-1a 64 of \p Text, for the per-run input fingerprint.
uint64_t hashText(const std::string &Text);

} // namespace perfbench

#endif // PPD_PERFBENCH_WORKLOADS_H
