//===- examples/quickstart.cpp - PPD in five minutes ----------------------===//
//
// Part of PPD, a reproduction of Miller & Choi, "A Mechanism for Efficient
// Debugging of Parallel Programs" (PLDI 1988).
//
// The paper's Fig 4.1 walkthrough: compile a program, run it with logging
// (the execution phase), then — without re-executing the program — ask the
// PPD controller to explain where the printed value came from (flowback
// analysis, regenerating traces incrementally from the log).
//
//===----------------------------------------------------------------------===//

#include "compiler/Compiler.h"
#include "core/Controller.h"
#include "vm/Machine.h"

#include <cstdio>

using namespace ppd;

namespace {

/// Fig 4.1's fragment, completed into a runnable program. The dynamic
/// graph of interest hangs off statement s6 (`a = a + sq`).
const char *Source = R"(
func SubD(int p1, int p2, int p3) {
  return p1 * p2 - p3;
}
func main() {
  int a = 2;
  int b = 3;
  int c = 17;
  int d = SubD(a, b, a + b + c);   // s1 in the paper's figure
  int sq = 0;
  if (d > 0)                        // s3
    sq = sqrt(d);                   // s4
  else
    sq = sqrt(-d);                  // s5
  a = a + sq;                       // s6
  print(a);
}
)";

void flowbackWalk(PpdController &Controller, DynNodeId Start,
                  unsigned MaxSteps) {
  DynNodeId Node = Start;
  for (unsigned Step = 0; Step != MaxSteps && Node != InvalidId; ++Step) {
    const DynNode &N = Controller.graph().node(Node);
    std::printf("  [%u] %.*s", Step, int(N.Label.size()), N.Label.data());
    if (N.HasValue)
      std::printf("   (value %lld)", (long long)N.Value);
    std::printf("\n");

    // Show all incoming dependences, then follow the first data edge.
    DynNodeId Next = InvalidId;
    for (const DynEdge &E : Controller.dependencesOf(Node)) {
      const DynNode &From = Controller.graph().node(E.From);
      const char *Kind = E.Kind == DynEdgeKind::Control ? "control"
                         : E.Kind == DynEdgeKind::CrossData
                             ? "cross-process data"
                             : E.Kind == DynEdgeKind::Data ? "data" : nullptr;
      if (!Kind)
        continue;
      std::printf("        <- %s dep on %.*s\n", Kind, int(From.Label.size()),
                  From.Label.data());
      if (Next == InvalidId &&
          (E.Kind == DynEdgeKind::Data || E.Kind == DynEdgeKind::CrossData) &&
          From.Kind != DynNodeKind::Entry)
        Next = E.From;
    }
    Node = Next;
  }
}

} // namespace

int main() {
  std::printf("== PPD quickstart: the paper's Fig 4.1 walkthrough ==\n\n");

  // Preparatory phase: the Compiler/Linker emits object code, emulation
  // package, static graphs, and the program database (paper Fig 3.1).
  DiagnosticEngine Diags;
  auto Prog = Compiler::compile(Source, CompileOptions(), Diags);
  if (!Prog) {
    std::fprintf(stderr, "compile error:\n%s", Diags.str().c_str());
    return 1;
  }
  std::printf("compiled: %zu functions, %zu e-blocks, %zu sync units\n",
              Prog->Funcs.size(), Prog->EBlocks.size(), Prog->Units.size());

  // Execution phase: the object code runs and generates the log.
  Machine M(*Prog, MachineOptions());
  RunResult Result = M.run();
  std::printf("execution: %llu VM steps, output:",
              (unsigned long long)Result.Steps);
  for (const OutputRecord &O : M.output())
    std::printf(" %lld", (long long)O.Value);
  std::printf("\nlog volume: %zu bytes\n\n", M.log().byteSize());

  // Debugging phase: flowback analysis from the last event — no program
  // re-execution, only incremental replay of log intervals.
  PpdController Controller(*Prog, M.takeLog());
  DynNodeId Last = Controller.startAtLastEvent(0);
  std::printf("flowback from the final print:\n");
  flowbackWalk(Controller, Last, 8);

  // Expand the SubD call's sub-graph node (Fig 4.1's detail view).
  for (uint32_t Id = 0; Id != Controller.graph().numNodes(); ++Id) {
    const DynNode &N = Controller.graph().node(Id);
    if (N.Kind == DynNodeKind::SubGraph && !N.Expanded) {
      std::printf("\nexpanding sub-graph node '%.*s' (replays the nested "
                  "log interval)\n",
                  int(N.Label.size()), N.Label.data());
      Controller.expandCall(Id);
    }
  }
  std::printf("replays performed: %llu, events traced: %llu\n",
              (unsigned long long)Controller.stats().Replays,
              (unsigned long long)Controller.stats().EventsTraced);

  // Emit the dynamic graph (Fig 4.1's picture) for Graphviz.
  std::string Dot = Controller.graph().dot(*Prog->Ast, {Last});
  std::printf("\ndynamic program dependence graph (DOT, %zu bytes) — pipe "
              "into `dot -Tpng`:\n%s\n",
              Dot.size(), Dot.c_str());
  return 0;
}
