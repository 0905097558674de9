//===- bench/bench_varset.cpp - Experiment E6 -----------------------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// E6 reproduces the paper's §7 remark:
//
//   "using bit-mask representations for sets of variables (as opposed to a
//    list structure) can have a large payoff"
//
// Two layers are measured:
//  * micro: union / intersects / popcount on synthetic variable sets of
//    varying universe size and density — intersects() is the inner loop of
//    race detection (Def 6.3);
//  * macro: the real MOD/REF interprocedural fixpoint (the paper's cited
//    semantic analysis) over a generated program, with each representation.
//
//===----------------------------------------------------------------------===//

#include "dataflow/ModRef.h"
#include "lang/Parser.h"
#include "sema/CallGraph.h"
#include "sema/Sema.h"
#include "support/Rng.h"
#include "support/VarSet.h"

#include <benchmark/benchmark.h>

using namespace ppd;

namespace {

template <VariableSet Set>
std::vector<Set> makeSets(unsigned Count, unsigned Universe,
                          unsigned Density) {
  Rng R(1234);
  std::vector<Set> Sets(Count);
  for (Set &S : Sets)
    for (unsigned I = 0; I != Density; ++I)
      S.insert(unsigned(R.nextBelow(Universe)));
  return Sets;
}

template <VariableSet Set> void unionChain(benchmark::State &State) {
  unsigned Universe = unsigned(State.range(0));
  unsigned Density = unsigned(State.range(1));
  auto Sets = makeSets<Set>(64, Universe, Density);
  for (auto _ : State) {
    Set Acc;
    for (const Set &S : Sets)
      Acc.unionWith(S);
    benchmark::DoNotOptimize(Acc.size());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * 64);
}

template <VariableSet Set> void intersectsAllPairs(benchmark::State &State) {
  unsigned Universe = unsigned(State.range(0));
  unsigned Density = unsigned(State.range(1));
  auto Sets = makeSets<Set>(64, Universe, Density);
  for (auto _ : State) {
    unsigned Conflicts = 0;
    for (size_t I = 0; I != Sets.size(); ++I)
      for (size_t J = I + 1; J != Sets.size(); ++J)
        Conflicts += Sets[I].intersects(Sets[J]);
    benchmark::DoNotOptimize(Conflicts);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * 64 * 63 / 2);
}

/// |A| over every set. BitVarSet counts per-word scalar popcount over its
/// (trimmed) words.
template <VariableSet Set> void popcountAll(benchmark::State &State) {
  unsigned Universe = unsigned(State.range(0));
  unsigned Density = unsigned(State.range(1));
  auto Sets = makeSets<Set>(64, Universe, Density);
  for (auto _ : State) {
    unsigned Total = 0;
    for (const Set &S : Sets)
      Total += S.size();
    benchmark::DoNotOptimize(Total);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * 64);
}

/// Generates a program with \p Funcs functions in a call chain, each
/// touching a few of \p Globals shared globals — a workload whose MOD/REF
/// fixpoint moves large variable sets around.
std::string makeModRefProgram(unsigned Funcs, unsigned Globals) {
  std::string Source;
  for (unsigned G = 0; G != Globals; ++G)
    Source += "shared int g" + std::to_string(G) + ";\n";
  for (unsigned F = 0; F != Funcs; ++F) {
    Source += "func f" + std::to_string(F) + "(int x) {\n";
    for (unsigned K = 0; K != 4; ++K) {
      unsigned G = (F * 7 + K * 13) % Globals;
      Source += "  g" + std::to_string(G) + " = g" + std::to_string(G) +
                " + x;\n";
    }
    if (F + 1 != Funcs)
      Source += "  return f" + std::to_string(F + 1) + "(x + 1);\n";
    Source += "  return x;\n}\n";
  }
  Source += "func main() { print(f0(1)); }\n";
  return Source;
}

struct ModRefInput {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<SymbolTable> Symbols;
  std::unique_ptr<CallGraph> CG;
};

ModRefInput prepare(unsigned Funcs, unsigned Globals) {
  ModRefInput In;
  DiagnosticEngine Diags;
  In.Prog = Parser::parse(makeModRefProgram(Funcs, Globals), Diags);
  if (!In.Prog)
    std::abort();
  Sema S(*In.Prog, Diags);
  In.Symbols = S.run();
  if (!In.Symbols)
    std::abort();
  In.CG = std::make_unique<CallGraph>(*In.Prog);
  return In;
}

template <VariableSet Set> void modRefFixpoint(benchmark::State &State) {
  auto In = prepare(unsigned(State.range(0)), unsigned(State.range(1)));
  for (auto _ : State) {
    auto MR = computeModRef<Set>(*In.Prog, *In.Symbols, *In.CG);
    benchmark::DoNotOptimize(MR.Mod.back().size());
  }
}

} // namespace

// Universe sizes bracket what real programs see: a handful of shared
// globals up to thousands of program variables.
#define SET_ARGS                                                              \
  ->Args({64, 8})->Args({64, 32})->Args({1024, 32})->Args({1024, 256})        \
      ->Args({8192, 512})

BENCHMARK(unionChain<BitVarSet>) SET_ARGS;
BENCHMARK(unionChain<ListVarSet>) SET_ARGS;
BENCHMARK(intersectsAllPairs<BitVarSet>) SET_ARGS;
BENCHMARK(intersectsAllPairs<ListVarSet>) SET_ARGS;
BENCHMARK(popcountAll<BitVarSet>) SET_ARGS;
BENCHMARK(popcountAll<ListVarSet>) SET_ARGS;

BENCHMARK(modRefFixpoint<BitVarSet>)->Args({20, 50})->Args({100, 200});
BENCHMARK(modRefFixpoint<ListVarSet>)->Args({20, 50})->Args({100, 200});

BENCHMARK_MAIN();
