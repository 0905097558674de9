//===- pardyn/ParallelDynamicGraph.h - §6 superstructure --------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *parallel dynamic program dependence graph* (§4.3, §6.1, Fig 6.1):
/// the subset of the dynamic graph that abstracts process interactions —
/// synchronization nodes connected by internal edges (within a process)
/// and synchronization edges (between processes). It is built directly
/// from the execution log's sync-event records; as the paper notes, it can
/// be constructed during execution, with the detailed local dependences
/// filled in later by replay.
///
/// Ordering uses Lamport happens-before [25] computed as vector clocks:
/// node A → node B iff A's clock is componentwise ≤ B's. Edges are ordered
/// by Def §6.1: e1 → e2 iff end(e1) → start(e2). Internal edges carry the
/// shared READ/WRITE sets recorded at execution time (Def 6.2), the inputs
/// to race detection (Defs 6.3/6.4).
///
//===----------------------------------------------------------------------===//

#ifndef PPD_PARDYN_PARALLELDYNAMICGRAPH_H
#define PPD_PARDYN_PARALLELDYNAMICGRAPH_H

#include "log/ExecutionLog.h"
#include "support/VarSet.h"

#include <span>
#include <string>
#include <vector>

namespace ppd {

class SymbolTable;
class Program;

/// Identifies a synchronization node: process + position in that process's
/// sync-node sequence.
struct SyncNodeRef {
  uint32_t Pid = InvalidId;
  uint32_t Index = InvalidId;

  bool valid() const { return Pid != InvalidId; }
  friend bool operator==(SyncNodeRef A, SyncNodeRef B) {
    return A.Pid == B.Pid && A.Index == B.Index;
  }
};

struct SyncNode {
  SyncKind Kind = SyncKind::ProcStart;
  uint32_t Object = 0;       ///< semaphore/channel/function id.
  uint64_t Seq = 0;          ///< global sequence number.
  uint64_t PartnerSeq = NoPartner;
  StmtId Stmt = InvalidId;
  uint32_t RecordIdx = 0;    ///< index of the record in the process log.
  /// Vector clock: VC[p] = number of p's sync nodes that happen-before or
  /// equal this node.
  std::vector<uint32_t> Clock;
};

/// The internal edge ending at node Index of process Pid (Index >= 1; the
/// edge's start node is Index-1).
struct InternalEdge {
  uint32_t Pid = 0;
  uint32_t EndNode = 0;
  BitVarSet Reads;  ///< SharedIndex bits (Def 6.2 READ_SET).
  BitVarSet Writes; ///< SharedIndex bits (WRITE_SET).
};

/// Identifies an internal edge: (pid, end-node index).
struct EdgeRef {
  uint32_t Pid = InvalidId;
  uint32_t EndNode = InvalidId;

  bool valid() const { return Pid != InvalidId; }
  friend bool operator==(EdgeRef A, EdgeRef B) {
    return A.Pid == B.Pid && A.EndNode == B.EndNode;
  }
};

class ParallelDynamicGraph {
public:
  ParallelDynamicGraph(const ExecutionLog &Log, unsigned NumSharedVars);

  /// Incremental construction, for callers that materialize one process's
  /// records at a time (the paged controller pins sections through a
  /// buffer pool and never holds the whole log): construct with the
  /// process count, addProcess() each section in any order, finalize()
  /// once. The finished graph is identical to the whole-log constructor's.
  ///
  /// finalize() is also where records read back from disk are checked
  /// before any clock is computed over them, in the passes it makes
  /// anyway: sequence numbers distinct and filling [0, sync-record
  /// count), every partner earlier in that order than its dependent,
  /// program order agreeing with it, and every READ/WRITE id inside the
  /// shared segment. False means the records are inconsistent and the
  /// graph is unusable.
  ParallelDynamicGraph(unsigned NumSharedVars, uint32_t NumProcs);
  void addProcess(uint32_t Pid, const ProcessLog &PL);
  [[nodiscard]] bool finalize();

  /// Deserialization path (the `.ppdb` sidecar persists the graph so a
  /// warm open never scans record streams): install one process's
  /// pre-extracted node and edge rows verbatim, then finalize() once.
  /// Rows carry only what addProcess reads from sync records — Clock and
  /// the seq lookup are recomputed by finalize(). Edge i must end at
  /// node i+1, the invariant addProcess establishes.
  void adoptProcess(uint32_t Pid, std::vector<SyncNode> ProcNodes,
                    std::vector<InternalEdge> ProcEdges);

  /// Streamed-ingest construction: extends process \p Pid with the sync
  /// records in \p PL starting at record \p FromRecord, then
  /// finalizeTail() closes the clocks of everything appended since the
  /// last finalize. \p Pid == numProcs() grows the graph by one process.
  /// finalizeTail() checks what finalize() checks, over the appended
  /// nodes: their Seqs fill the window [old seq count, old seq count +
  /// appended) and every partner is already finalized or appended earlier
  /// in the order (the consistent-cut invariant). The finished graph is
  /// then identical to a batch build over the same records; false leaves
  /// it unusable.
  void appendProcess(uint32_t Pid, const ProcessLog &PL,
                     uint32_t FromRecord);
  [[nodiscard]] bool finalizeTail();

  unsigned numProcs() const { return unsigned(Nodes.size()); }
  const std::vector<SyncNode> &nodes(uint32_t Pid) const {
    return Nodes[Pid];
  }
  const SyncNode &node(SyncNodeRef Ref) const {
    return Nodes[Ref.Pid][Ref.Index];
  }
  const std::vector<InternalEdge> &edges(uint32_t Pid) const {
    return Edges[Pid];
  }
  const InternalEdge &edge(EdgeRef Ref) const {
    return Edges[Ref.Pid][Ref.EndNode - 1];
  }
  /// All internal edges of all processes.
  std::vector<EdgeRef> allEdges() const;

  /// Synchronization-edge source of \p Ref (the partner node), if any.
  SyncNodeRef partnerOf(SyncNodeRef Ref) const;

  /// Synchronization-edge targets of \p Ref: every node whose partner is
  /// \p Ref, in (pid, index) order — the inverse of partnerOf, read off
  /// the reverse-partner index.
  std::span<const SyncNodeRef> dependentsOf(SyncNodeRef Ref) const;

  /// Happens-before over nodes (Lamport ordering; reflexive-false).
  bool happensBefore(SyncNodeRef A, SyncNodeRef B) const;

  /// Edge ordering, Def §6.1: e1 → e2 iff end(e1) → start(e2). start(e) is
  /// the node preceding the edge, end(e) its EndNode.
  bool edgeHappensBefore(EdgeRef A, EdgeRef B) const;

  /// Def 6.1: neither e1 → e2 nor e2 → e1.
  bool simultaneous(EdgeRef A, EdgeRef B) const;

  /// The internal edge of process \p Pid whose record span contains log
  /// record \p RecordIdx; invalid if the position precedes the first sync
  /// node (cannot happen: ProcStart is record 0) or the process has no
  /// edge there yet. Past the last sync node (a process stopped mid-edge)
  /// it answers the edge ending at the last node.
  EdgeRef edgeContaining(uint32_t Pid, uint32_t RecordIdx) const;

  /// The internal edges that write one shared variable and happen-before
  /// one reader edge, enumerated latest first (descending end-node Seq —
  /// a linear extension of happens-before). WRITE_SETs are
  /// variable-granular, so a caller attributing an array-element read may
  /// need to fall back past the latest writer to an earlier one that
  /// wrote the element in question; the cursor pays only for the writers
  /// it hands out. Valid while the graph is not extended.
  class WriterCursor {
  public:
    /// The next-latest writer; invalid once every writer was returned.
    EdgeRef next();
    /// A writing edge *simultaneous* with the reader (the §6.3 situation
    /// where "we cannot tell which happened first"): the one with the
    /// largest (pid, end node). Invalid when every writer is ordered.
    EdgeRef raceWitness() const { return Witness; }

  private:
    friend class ParallelDynamicGraph;
    /// One process's writers that precede the reader: Ends[0, Left) are
    /// still pending, ascending, so Ends[Left - 1] is the latest.
    struct Run {
      uint32_t Pid;
      const uint32_t *Ends;
      uint32_t Left;
    };
    const ParallelDynamicGraph *Graph = nullptr;
    std::vector<Run> Runs;
    EdgeRef Witness;
  };

  /// The writers of shared variable \p SharedIdx that happen-before
  /// \p Reader (Reader itself and its process's later edges excluded),
  /// plus the race witness. O(P log W) to open over the writer index.
  WriterCursor writersBefore(EdgeRef Reader, uint32_t SharedIdx) const;

  /// Graphviz rendering in the style of Fig 6.1: one column per process,
  /// synchronization edges across.
  std::string dot(const Program &P) const;

private:
  /// Rebuilds the derived query indexes below from Nodes/Edges/BySeq; run
  /// at the end of finalize() and finalizeTail(). Never persisted.
  void buildIndexes();

  std::vector<std::vector<SyncNode>> Nodes;     ///< per pid.
  std::vector<std::vector<InternalEdge>> Edges; ///< per pid; edge i ends
                                                ///< at node i+1.
  /// Seq → node lookup.
  std::vector<SyncNodeRef> BySeq;
  unsigned NumShared;
  /// First BySeq slot not yet clock-finalized; finalizeTail() resumes
  /// here. Every successful finalize leaves it at BySeq.size().
  uint64_t FinalizeWatermark = 0;
  /// A record carried a READ/WRITE id outside the shared segment.
  bool Malformed = false;

  /// Reverse-partner index (CSR keyed by Seq): the dependents of the node
  /// with sequence number s are Dependents[DependentsAt[s], DependentsAt[s
  /// + 1]), in (pid, index) order.
  std::vector<uint32_t> DependentsAt;
  std::vector<SyncNodeRef> Dependents;
  /// Per-shared-variable writer index (CSR keyed by SharedIdx * P + pid):
  /// the ascending end nodes of that process's edges writing the variable.
  std::vector<uint32_t> WritersAt;
  std::vector<uint32_t> WriterEnds;
};

} // namespace ppd

#endif // PPD_PARDYN_PARALLELDYNAMICGRAPH_H
