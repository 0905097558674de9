//===- core/DynamicGraph.h - §4.2 dynamic dependence graph ------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *dynamic program dependence graph* (§4.2, Fig 4.1): actual run-time
/// dependences between program events. Node kinds mirror the paper's —
/// ENTRY/EXIT nodes, *singular* nodes (one statement execution, carrying
/// the assigned or predicate value), *sub-graph* nodes (one call,
/// expandable on demand), plus the %n parameter-binding nodes of Fig 4.1
/// (including the "fictional" nodes for expression arguments) and
/// synthetic Initial/Unresolved nodes standing for values that flowed in
/// from outside the traced region.
///
/// The graph is built *incrementally*: the PPD controller appends node
/// fragments per replayed log interval and splices cross-interval and
/// cross-process edges as the user's queries demand (§3.2.3).
///
//===----------------------------------------------------------------------===//

#ifndef PPD_CORE_DYNAMICGRAPH_H
#define PPD_CORE_DYNAMICGRAPH_H

#include "lang/Ast.h"

#include <deque>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ppd {

class Program;

using DynNodeId = uint32_t;

enum class DynNodeKind : uint8_t {
  Entry,     ///< e-block/interval entry (labelled with the function)
  Singular,  ///< one executed statement
  SubGraph,  ///< one call — expanded or not
  Param,     ///< %n parameter binding (Fig 4.1)
  Initial,   ///< value present before the traced region / program start
  Unresolved ///< value produced by another process/interval, not yet
             ///< traced (expand via the controller)
};

enum class DynEdgeKind : uint8_t {
  Data,    ///< value flow (paper: solid arrow)
  Control, ///< control dependence (paper: dashed arrow)
  Flow,    ///< execution order between consecutive events
  Sync,    ///< synchronization edge (cross-process)
  CrossData ///< data dependence resolved across processes (§6.3)
};

struct DynNode {
  DynNodeId Id = InvalidId;
  DynNodeKind Kind = DynNodeKind::Singular;
  /// Event identity: process, log interval, event index within the
  /// interval's trace. Synthetic nodes use InvalidId components.
  uint32_t Pid = InvalidId;
  uint32_t Interval = InvalidId;
  uint32_t Event = InvalidId;
  StmtId Stmt = InvalidId;
  /// The associated value (assigned value, predicate outcome, return
  /// value, parameter value) — §4.2 associates one with every node.
  int64_t Value = 0;
  bool HasValue = false;
  /// Enclosing sub-graph node, or InvalidId at top level.
  DynNodeId Parent = InvalidId;
  /// SubGraph nodes: callee and whether the detail was generated.
  uint32_t Callee = InvalidId;
  bool Expanded = false;
  /// Display text: a string literal or a view DynamicGraph::intern
  /// returned; the builder interns each distinct text once and shares it.
  std::string_view Label;
};

struct DynEdge {
  DynEdgeKind Kind = DynEdgeKind::Data;
  DynNodeId From = InvalidId;
  DynNodeId To = InvalidId;
  VarId Var = InvalidId; ///< Data/CrossData: the variable carrying the value.
  int8_t Branch = -1;    ///< Control: 1 = true arm, 0 = false arm.
};

class DynamicGraph {
  /// Per-edge successors in its target's in-list and source's out-list.
  struct EdgeLinks {
    uint32_t NextIn = InvalidId;
    uint32_t NextOut = InvalidId;
  };

public:
  /// One node's in- or out-edges in insertion order, as they stood when
  /// the range was taken: edges added while iterating are not visited.
  /// Elements are copies, so growing the graph mid-loop leaves the loop
  /// variable intact.
  class EdgeRange {
  public:
    class iterator {
    public:
      using iterator_category = std::input_iterator_tag;
      using value_type = DynEdge;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = DynEdge;

      iterator() = default;
      DynEdge operator*() const { return G->Edges[Idx]; }
      iterator &operator++() {
        Idx = G->Links[Idx].*Next;
        if (Idx >= Limit)
          Idx = InvalidId;
        return *this;
      }
      bool operator==(const iterator &O) const { return Idx == O.Idx; }

    private:
      friend class EdgeRange;
      iterator(const DynamicGraph *G, uint32_t EdgeLinks::*Next,
               uint32_t Idx, uint32_t Limit)
          : G(G), Next(Next), Idx(Idx < Limit ? Idx : InvalidId),
            Limit(Limit) {}
      const DynamicGraph *G = nullptr;
      uint32_t EdgeLinks::*Next = nullptr;
      uint32_t Idx = InvalidId;
      uint32_t Limit = 0;
    };

    iterator begin() const { return {G, Next, First, Limit}; }
    iterator end() const { return {}; }
    bool empty() const { return begin() == end(); }
    DynEdge front() const { return *begin(); }
    /// Walks the list: linear in the node's degree.
    size_t size() const {
      size_t N = 0;
      for (iterator It = begin(); It != end(); ++It)
        ++N;
      return N;
    }

  private:
    friend class DynamicGraph;
    EdgeRange(const DynamicGraph *G, uint32_t EdgeLinks::*Next,
              uint32_t First, uint32_t Limit)
        : G(G), Next(Next), First(First), Limit(Limit) {}
    const DynamicGraph *G;
    uint32_t EdgeLinks::*Next;
    uint32_t First;
    uint32_t Limit; ///< edge count when the range was taken.
  };

  DynamicGraph() = default;
  // Labels view this graph's own label store.
  DynamicGraph(const DynamicGraph &) = delete;
  DynamicGraph &operator=(const DynamicGraph &) = delete;

  DynNodeId addNode(DynNode Node);
  void addEdge(DynEdge Edge);

  const DynNode &node(DynNodeId Id) const { return Nodes[Id]; }
  DynNode &node(DynNodeId Id) { return Nodes[Id]; }
  unsigned numNodes() const { return unsigned(Nodes.size()); }
  const std::vector<DynEdge> &edges() const { return Edges; }

  /// Incoming edges of \p Id (the flowback direction).
  EdgeRange inEdges(DynNodeId Id) const {
    return {this, &EdgeLinks::NextIn, Ends[Id].FirstIn,
            uint32_t(Edges.size())};
  }
  /// Outgoing edges of \p Id (forward flow).
  EdgeRange outEdges(DynNodeId Id) const {
    return {this, &EdgeLinks::NextOut, Ends[Id].FirstOut,
            uint32_t(Edges.size())};
  }

  /// Looks up the node of event (pid, interval, event), or InvalidId.
  DynNodeId nodeOfEvent(uint32_t Pid, uint32_t Interval,
                        uint32_t Event) const;

  /// True if the interval's fragment was already added.
  bool hasInterval(uint32_t Pid, uint32_t Interval) const {
    return TracedIntervals.count({Pid, Interval}) != 0;
  }
  void markInterval(uint32_t Pid, uint32_t Interval) {
    TracedIntervals.insert({Pid, Interval});
  }

  /// A copy of \p Text that lives as long as the graph. Node labels view
  /// these; callers keep the view to share one copy among nodes.
  std::string_view intern(std::string_view Text);

  /// Graphviz rendering of the whole graph (or, with \p Roots nonempty,
  /// of the backward slice from those nodes) in Fig 4.1's style: solid
  /// data edges, dashed control edges.
  std::string dot(const Program &P,
                  const std::vector<DynNodeId> &Roots = {}) const;

private:
  /// Heads and tails of a node's in- and out-lists.
  struct NodeEnds {
    uint32_t FirstIn = InvalidId, LastIn = InvalidId;
    uint32_t FirstOut = InvalidId, LastOut = InvalidId;
  };
  std::vector<DynNode> Nodes;
  std::vector<NodeEnds> Ends;   ///< by node.
  std::vector<DynEdge> Edges;
  std::vector<EdgeLinks> Links; ///< by edge.
  /// Event nodes by (pid << 32 | interval), then by event index; the
  /// fragment being built is cached (unordered_map values do not move).
  std::unordered_map<uint64_t, std::vector<DynNodeId>> EventNodes;
  uint64_t LastFragmentKey = ~uint64_t(0);
  std::vector<DynNodeId> *LastFragment = nullptr;
  std::set<std::pair<uint32_t, uint32_t>> TracedIntervals;
  /// Interned label text; a deque's elements keep their addresses as it
  /// grows, so views into them stay valid.
  std::deque<std::string> Labels;
};

} // namespace ppd

#endif // PPD_CORE_DYNAMICGRAPH_H
