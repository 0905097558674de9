//===- core/DynamicGraph.cpp ----------------------------------------------===//
//
// Part of PPD. See DynamicGraph.h.
//
//===----------------------------------------------------------------------===//

#include "core/DynamicGraph.h"

#include "lang/AstPrinter.h"
#include "support/DotWriter.h"

#include <algorithm>
#include <deque>

using namespace ppd;

namespace {

uint64_t fragmentKey(uint32_t Pid, uint32_t Interval) {
  return uint64_t(Pid) << 32 | Interval;
}

} // namespace

DynNodeId DynamicGraph::addNode(DynNode Node) {
  Node.Id = DynNodeId(Nodes.size());
  if (Node.Pid != InvalidId && Node.Event != InvalidId) {
    uint64_t Key = fragmentKey(Node.Pid, Node.Interval);
    if (Key != LastFragmentKey) {
      LastFragment = &EventNodes[Key];
      LastFragmentKey = Key;
    }
    // A fragment's events arrive in order, so this appends once or twice.
    while (LastFragment->size() <= Node.Event)
      LastFragment->push_back(InvalidId);
    (*LastFragment)[Node.Event] = Node.Id;
  }
  Nodes.push_back(Node);
  Ends.emplace_back();
  return Node.Id;
}

void DynamicGraph::addEdge(DynEdge Edge) {
  assert(Edge.From < Nodes.size() && Edge.To < Nodes.size() &&
         "edge endpoints must exist");
  uint32_t Idx = uint32_t(Edges.size());
  NodeEnds &To = Ends[Edge.To];
  (To.LastIn == InvalidId ? To.FirstIn : Links[To.LastIn].NextIn) = Idx;
  To.LastIn = Idx;
  NodeEnds &From = Ends[Edge.From];
  (From.LastOut == InvalidId ? From.FirstOut : Links[From.LastOut].NextOut) =
      Idx;
  From.LastOut = Idx;
  Edges.push_back(Edge);
  Links.emplace_back();
}

DynNodeId DynamicGraph::nodeOfEvent(uint32_t Pid, uint32_t Interval,
                                    uint32_t Event) const {
  auto It = EventNodes.find(fragmentKey(Pid, Interval));
  if (It == EventNodes.end() || Event >= It->second.size())
    return InvalidId;
  return It->second[Event];
}

std::string_view DynamicGraph::intern(std::string_view Text) {
  return Labels.emplace_back(Text);
}

std::string DynamicGraph::dot(const Program & /*P: nodes carry their labels*/,
                              const std::vector<DynNodeId> &Roots) const {
  // Select nodes: everything, or the backward slice from the roots.
  std::vector<bool> Keep(Nodes.size(), Roots.empty());
  if (!Roots.empty()) {
    std::deque<DynNodeId> Work(Roots.begin(), Roots.end());
    for (DynNodeId Id : Roots)
      Keep[Id] = true;
    while (!Work.empty()) {
      DynNodeId Id = Work.front();
      Work.pop_front();
      for (const DynEdge &E : inEdges(Id)) {
        // The backward slice follows dependences only; flow edges are mere
        // execution order and would drag in every earlier event.
        if (E.Kind == DynEdgeKind::Flow)
          continue;
        DynNodeId From = E.From;
        if (!Keep[From]) {
          Keep[From] = true;
          Work.push_back(From);
        }
      }
    }
  }

  DotWriter W("dynamic_graph");
  auto Name = [](DynNodeId Id) { return "d" + std::to_string(Id); };

  for (const DynNode &N : Nodes) {
    if (!Keep[N.Id])
      continue;
    std::string Label(N.Label);
    if (N.HasValue)
      Label += "\n= " + std::to_string(N.Value);
    std::vector<std::string> Attrs;
    switch (N.Kind) {
    case DynNodeKind::Entry:
      Attrs.push_back("shape=box");
      break;
    case DynNodeKind::Singular:
      Attrs.push_back("shape=ellipse");
      break;
    case DynNodeKind::SubGraph:
      // Fig 4.1 draws sub-graph nodes as double circles.
      Attrs.push_back("shape=doublecircle");
      break;
    case DynNodeKind::Param:
      Attrs.push_back("shape=plaintext");
      break;
    case DynNodeKind::Initial:
    case DynNodeKind::Unresolved:
      Attrs.push_back("shape=box");
      Attrs.push_back("style=dotted");
      break;
    }
    W.node(Name(N.Id), Label, Attrs);
  }

  for (const DynEdge &E : Edges) {
    if (!Keep[E.From] || !Keep[E.To])
      continue;
    std::vector<std::string> Attrs;
    switch (E.Kind) {
    case DynEdgeKind::Data:
      break; // solid, the default
    case DynEdgeKind::Control:
      Attrs.push_back("style=dashed");
      if (E.Branch == 1)
        Attrs.push_back("label=\"T\"");
      else if (E.Branch == 0)
        Attrs.push_back("label=\"F\"");
      break;
    case DynEdgeKind::Flow:
      Attrs.push_back("style=dotted");
      Attrs.push_back("arrowhead=open");
      break;
    case DynEdgeKind::Sync:
      Attrs.push_back("style=bold");
      Attrs.push_back("color=blue");
      break;
    case DynEdgeKind::CrossData:
      Attrs.push_back("color=red");
      break;
    }
    W.edge(Name(E.From), Name(E.To), Attrs);
  }
  return W.str();
}
