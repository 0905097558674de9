//===- cfg/Dominators.cpp -------------------------------------------------===//
//
// Part of PPD. See Dominators.h.
//
//===----------------------------------------------------------------------===//

#include "cfg/Dominators.h"

#include <cassert>
#include <ranges>

using namespace ppd;

namespace {

/// Direction-abstracted view of the CFG edges, read in place.
struct GraphView {
  const Cfg &G;
  bool Post;

  /// Edges pointing toward the root ("predecessors" in analysis space).
  size_t numPreds(CfgNodeId Node) const {
    return Post ? G.node(Node).Succs.size() : G.node(Node).Preds.size();
  }
  CfgNodeId pred(CfgNodeId Node, size_t I) const {
    return Post ? G.node(Node).Succs[I].Node : G.node(Node).Preds[I];
  }

  size_t numSuccs(CfgNodeId Node) const {
    return Post ? G.node(Node).Preds.size() : G.node(Node).Succs.size();
  }
  CfgNodeId succ(CfgNodeId Node, size_t I) const {
    return Post ? G.node(Node).Preds[I] : G.node(Node).Succs[I].Node;
  }
};

} // namespace

DomTree::DomTree(const Cfg &G, bool Post) {
  Root = Post ? Cfg::ExitId : Cfg::EntryId;
  unsigned N = G.size();
  Idom.assign(N, InvalidId);
  Level.assign(N, InvalidId);

  GraphView View{G, Post};

  // Post-order from the root in analysis direction.
  std::vector<bool> Visited(N, false);
  std::vector<CfgNodeId> PostOrder;
  std::vector<std::pair<CfgNodeId, size_t>> Stack;

  Stack.push_back({Root, 0});
  Visited[Root] = true;
  while (!Stack.empty()) {
    auto &[Node, Next] = Stack.back();
    if (Next < View.numSuccs(Node)) {
      CfgNodeId S = View.succ(Node, Next++);
      if (!Visited[S]) {
        Visited[S] = true;
        Stack.push_back({S, 0});
      }
      continue;
    }
    PostOrder.push_back(Node);
    Stack.pop_back();
  }

  // Reverse post-order: PostOrder read backwards.
  const auto Rpo = std::views::reverse(PostOrder);
  std::vector<uint32_t> RpoIndex(N, InvalidId);
  for (unsigned I = 0; I != PostOrder.size(); ++I)
    RpoIndex[PostOrder[I]] = unsigned(PostOrder.size()) - 1 - I;

  // Cooper–Harvey–Kennedy: iterate to fixpoint intersecting predecessor
  // dominators in RPO-index space.
  auto Intersect = [&](CfgNodeId A, CfgNodeId B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  Idom[Root] = Root; // temporary self-loop eases Intersect
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (CfgNodeId Node : Rpo) {
      if (Node == Root)
        continue;
      CfgNodeId NewIdom = InvalidId;
      for (size_t I = 0, E = View.numPreds(Node); I != E; ++I) {
        CfgNodeId Pred = View.pred(Node, I);
        if (!Visited[Pred] || Idom[Pred] == InvalidId)
          continue;
        NewIdom = NewIdom == InvalidId ? Pred : Intersect(Pred, NewIdom);
      }
      if (NewIdom != InvalidId && Idom[Node] != NewIdom) {
        Idom[Node] = NewIdom;
        Changed = true;
      }
    }
  }
  Idom[Root] = InvalidId;

  // Levels for dominance queries: process in RPO so parents come first.
  Level[Root] = 0;
  for (CfgNodeId Node : Rpo) {
    if (Node == Root || Idom[Node] == InvalidId)
      continue;
    assert(Level[Idom[Node]] != InvalidId && "idom processed after child");
    Level[Node] = Level[Idom[Node]] + 1;
  }
}

bool DomTree::dominates(CfgNodeId A, CfgNodeId B) const {
  if (Level[A] == InvalidId || Level[B] == InvalidId)
    return false;
  while (Level[B] > Level[A])
    B = Idom[B];
  return A == B;
}
