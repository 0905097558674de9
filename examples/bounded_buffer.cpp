//===- examples/bounded_buffer.cpp - Cross-process flowback ---------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// A classic producer/consumer bounded buffer built from semaphores and a
// shared array. The consumer prints a suspicious value; flowback analysis
// follows the dependence *across process boundaries* (§6.3): the read of
// the shared slot resolves to the producer's write via the parallel
// dynamic graph, and the producer's interval is replayed on demand.
//
//===----------------------------------------------------------------------===//

#include "compiler/Compiler.h"
#include "core/Controller.h"
#include "vm/Machine.h"

#include <cstdio>

using namespace ppd;

namespace {

const char *Source = R"(
shared int buffer[4];
shared int head;
shared int tail;
sem slots = 4;
sem items;
sem mutex = 1;

func produce(int n) {
  int i = 0;
  for (i = 1; i <= n; i = i + 1) {
    P(slots);
    P(mutex);
    buffer[tail % 4] = i * i;     // the value under investigation
    tail = tail + 1;
    V(mutex);
    V(items);
  }
}

func main() {
  spawn produce(6);
  int got = 0;
  int i = 0;
  for (i = 0; i < 6; i = i + 1) {
    P(items);
    P(mutex);
    got = buffer[head % 4];
    head = head + 1;
    V(mutex);
    V(slots);
    print(got);
  }
}
)";

} // namespace

int main() {
  std::printf("== PPD bounded buffer: flowback across processes ==\n\n");

  DiagnosticEngine Diags;
  auto Prog = Compiler::compile(Source, CompileOptions(), Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  MachineOptions MOpts;
  MOpts.Seed = 5;
  Machine M(*Prog, MOpts);
  M.run();
  std::printf("consumer printed:");
  for (const OutputRecord &O : M.output())
    std::printf(" %lld", (long long)O.Value);
  std::printf("\n\n");

  PpdController Controller(*Prog, M.takeLog());

  // The execution is properly synchronized: certify it race-free first
  // (Def 6.4) — this is what makes the logs valid for replay.
  auto Races = Controller.detectRaces();
  std::printf("race check: %s\n\n",
              Races.raceFree() ? "race-free execution instance"
                               : "RACES FOUND (unexpected!)");

  // Start at the consumer's last print and flow back to `got`, then into
  // the shared buffer and across to the producer.
  DynNodeId Last = Controller.startAtLastEvent(0);
  std::printf("flowback from the consumer's last print:\n");
  DynNodeId Node = Last;
  for (unsigned Step = 0; Step != 6 && Node != InvalidId; ++Step) {
    const DynNode &N = Controller.graph().node(Node);
    std::string ValueText =
        N.HasValue ? "   = " + std::to_string(N.Value) : std::string();
    std::printf("  [%u] (p%u) %.*s%s\n", Step,
                N.Pid == InvalidId ? 9u : N.Pid, int(N.Label.size()),
                N.Label.data(), ValueText.c_str());
    DynNodeId Next = InvalidId;
    for (const DynEdge &E : Controller.dependencesOf(Node)) {
      if (E.Kind != DynEdgeKind::Data && E.Kind != DynEdgeKind::CrossData)
        continue;
      const DynNode &From = Controller.graph().node(E.From);
      if (From.Kind == DynNodeKind::Entry)
        continue;
      if (E.Kind == DynEdgeKind::CrossData)
        std::printf("        (crossed a process boundary, §6.3)\n");
      Next = E.From;
      break;
    }
    Node = Next;
  }

  std::printf("\nintervals replayed on demand: %llu (out of %zu+%zu in the "
              "log)\n",
              (unsigned long long)Controller.stats().Replays,
              Controller.logIndex().intervals(0).size(),
              Controller.logIndex().intervals(1).size());
  return 0;
}
