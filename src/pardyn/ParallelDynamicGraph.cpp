//===- pardyn/ParallelDynamicGraph.cpp ------------------------------------===//
//
// Part of PPD. See ParallelDynamicGraph.h.
//
//===----------------------------------------------------------------------===//

#include "pardyn/ParallelDynamicGraph.h"

#include "lang/Ast.h"
#include "lang/AstPrinter.h"
#include "support/DotWriter.h"

#include <algorithm>
#include <cassert>

using namespace ppd;

ParallelDynamicGraph::ParallelDynamicGraph(unsigned NumSharedVars,
                                           uint32_t NumProcs)
    : NumShared(NumSharedVars) {
  Nodes.resize(NumProcs);
  Edges.resize(NumProcs);
}

ParallelDynamicGraph::ParallelDynamicGraph(const ExecutionLog &Log,
                                           unsigned NumSharedVars)
    : ParallelDynamicGraph(NumSharedVars, uint32_t(Log.Procs.size())) {
  for (uint32_t Pid = 0; Pid != Log.Procs.size(); ++Pid)
    addProcess(Pid, Log.Procs[Pid]);
  // A log recorded by a run is well formed by construction; logs from
  // files that may be corrupt take the paged path, whose callers check
  // finalize().
  bool Ok = finalize();
  assert(Ok && "inconsistent sync records in an in-memory log");
  (void)Ok;
}

void ParallelDynamicGraph::addProcess(uint32_t Pid, const ProcessLog &PL) {
  assert(Pid < Nodes.size() && "pid out of range");
  assert(Nodes[Pid].empty() && "process added twice");
  appendProcess(Pid, PL, 0);
}

void ParallelDynamicGraph::appendProcess(uint32_t Pid, const ProcessLog &PL,
                                         uint32_t FromRecord) {
  assert(Pid <= Nodes.size() && "pid out of range");
  if (Pid == Nodes.size()) {
    Nodes.emplace_back();
    Edges.emplace_back();
  }
  // Collect the process's sync nodes and internal edges. Shared ids past
  // the program's shared segment cannot come from a real run; they mark
  // the graph malformed (finalize() reports it) instead of sizing sets
  // and indexes by hostile values.
  for (uint32_t Idx = FromRecord; Idx < PL.Records.size(); ++Idx) {
    const LogRecord &R = PL.Records[Idx];
    if (R.Kind != LogRecordKind::SyncEvent)
      continue;
    SyncNode N;
    N.Kind = R.Sync;
    N.Object = R.Id;
    N.Seq = R.Seq;
    N.PartnerSeq = R.PartnerSeq;
    N.Stmt = R.Stmt;
    N.RecordIdx = Idx;

    if (!Nodes[Pid].empty()) {
      InternalEdge E;
      E.Pid = Pid;
      E.EndNode = uint32_t(Nodes[Pid].size());
      // Pre-size to the shared segment so the insert loops never
      // reallocate.
      E.Reads.reserveFor(NumShared);
      E.Writes.reserveFor(NumShared);
      for (uint32_t S : R.ReadSet)
        if (S < NumShared)
          E.Reads.insert(S);
        else
          Malformed = true;
      for (uint32_t S : R.WriteSet)
        if (S < NumShared)
          E.Writes.insert(S);
        else
          Malformed = true;
      Edges[Pid].push_back(std::move(E));
    }
    Nodes[Pid].push_back(std::move(N));
  }
}

void ParallelDynamicGraph::adoptProcess(uint32_t Pid,
                                        std::vector<SyncNode> ProcNodes,
                                        std::vector<InternalEdge> ProcEdges) {
  assert(Pid < Nodes.size() && "pid out of range");
  assert(Nodes[Pid].empty() && "process added twice");
  assert((ProcNodes.empty() ? ProcEdges.empty()
                            : ProcEdges.size() == ProcNodes.size() - 1) &&
         "edge i must end at node i+1");
  Nodes[Pid] = std::move(ProcNodes);
  Edges[Pid] = std::move(ProcEdges);
}

bool ParallelDynamicGraph::finalize() {
  // A batch build is one tail round over a graph with nothing finalized:
  // every node's clock is still empty.
  BySeq.clear();
  FinalizeWatermark = 0;
  return finalizeTail();
}

bool ParallelDynamicGraph::finalizeTail() {
  if (Malformed)
    return false;
  // Zero-extend already-finalized clocks when streaming grew the process
  // count: component p stays 0 for old nodes because none of a
  // later-arriving process's nodes can happen-before a node sealed in an
  // earlier cut. Count the appended nodes (empty clock) on the way.
  uint64_t NumNew = 0;
  uint64_t MaxSeq = 0;
  for (std::vector<SyncNode> &ProcNodes : Nodes)
    for (SyncNode &N : ProcNodes) {
      if (!N.Clock.empty()) {
        if (N.Clock.size() < Nodes.size())
          N.Clock.resize(Nodes.size(), 0);
        continue;
      }
      ++NumNew;
      MaxSeq = std::max(MaxSeq, N.Seq);
    }
  if (NumNew == 0) {
    buildIndexes();
    return true;
  }

  // The appended seqs must fill the window [watermark, watermark +
  // appended) exactly — distinct, none below the watermark, none past it —
  // which also bounds the seq table by the sync-record count. Registering
  // them is the distinctness check.
  if (MaxSeq < FinalizeWatermark || MaxSeq - FinalizeWatermark >= NumNew)
    return false;
  BySeq.resize(size_t(MaxSeq) + 1);
  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid)
    for (uint32_t Idx = 0; Idx != Nodes[Pid].size(); ++Idx) {
      const SyncNode &N = Nodes[Pid][Idx];
      if (!N.Clock.empty())
        continue;
      if (N.Seq < FinalizeWatermark || BySeq[N.Seq].valid())
        return false;
      BySeq[N.Seq] = {Pid, Idx};
    }

  // Vector clocks, processed in global seq order — a topological order of
  // the graph, since every synchronization edge goes from a lower to a
  // higher sequence number (checked here: a partner must precede its
  // dependent). Every predecessor (previous node of the process, partner)
  // is either below the watermark — finalized in an earlier round,
  // zero-extended above — or earlier in this walk.
  for (uint64_t S = FinalizeWatermark; S < BySeq.size(); ++S) {
    const SyncNodeRef Ref = BySeq[S];
    SyncNode &N = Nodes[Ref.Pid][Ref.Index];
    if (N.PartnerSeq != NoPartner && N.PartnerSeq >= N.Seq)
      return false;
    if (Ref.Index > 0 && Nodes[Ref.Pid][Ref.Index - 1].Clock.empty())
      return false; // program order disagrees with the global order
    N.Clock.assign(Nodes.size(), 0);
    if (Ref.Index > 0) {
      const SyncNode &Prev = Nodes[Ref.Pid][Ref.Index - 1];
      std::copy(Prev.Clock.begin(), Prev.Clock.end(), N.Clock.begin());
    }
    if (N.PartnerSeq != NoPartner) {
      const SyncNode &Partner = node(BySeq[N.PartnerSeq]);
      for (size_t I = 0; I != Partner.Clock.size(); ++I)
        N.Clock[I] = std::max(N.Clock[I], Partner.Clock[I]);
    }
    N.Clock[Ref.Pid] = Ref.Index + 1;
  }
  FinalizeWatermark = BySeq.size();
  buildIndexes();
  return true;
}

void ParallelDynamicGraph::buildIndexes() {
  // Both indexes are two-pass CSR builds: count per key, prefix-sum into
  // offsets, then fill walking nodes/edges in (pid, index) order — which
  // is what leaves every bucket in (pid, index) order.
  DependentsAt.assign(BySeq.size() + 1, 0);
  for (const std::vector<SyncNode> &ProcNodes : Nodes)
    for (const SyncNode &N : ProcNodes)
      if (N.PartnerSeq < BySeq.size())
        ++DependentsAt[N.PartnerSeq + 1];
  for (size_t S = 1; S < DependentsAt.size(); ++S)
    DependentsAt[S] += DependentsAt[S - 1];
  Dependents.resize(DependentsAt.back());
  {
    std::vector<uint32_t> Fill(DependentsAt.begin(), DependentsAt.end() - 1);
    for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid)
      for (uint32_t Idx = 0; Idx != Nodes[Pid].size(); ++Idx) {
        uint64_t Partner = Nodes[Pid][Idx].PartnerSeq;
        if (Partner < BySeq.size())
          Dependents[Fill[Partner]++] = {Pid, Idx};
      }
  }

  // Writer index, keyed SharedIdx * P + pid so one variable's processes
  // are adjacent. Sized by the largest id actually written, so a WRITE_SET
  // bit past NumShared is still indexed.
  const size_t P = Nodes.size();
  WritersAt.assign(size_t(NumShared) * P + 1, 0);
  for (uint32_t Pid = 0; Pid != P; ++Pid)
    for (const InternalEdge &E : Edges[Pid])
      E.Writes.forEach([&](unsigned S) {
        if ((size_t(S) + 1) * P + 1 > WritersAt.size())
          WritersAt.resize((size_t(S) + 1) * P + 1, 0);
        ++WritersAt[S * P + Pid + 1];
      });
  for (size_t K = 1; K < WritersAt.size(); ++K)
    WritersAt[K] += WritersAt[K - 1];
  WriterEnds.resize(WritersAt.back());
  std::vector<uint32_t> Fill(WritersAt.begin(), WritersAt.end() - 1);
  for (uint32_t Pid = 0; Pid != P; ++Pid)
    for (const InternalEdge &E : Edges[Pid])
      E.Writes.forEach(
          [&](unsigned S) { WriterEnds[Fill[S * P + Pid]++] = E.EndNode; });
}

std::vector<EdgeRef> ParallelDynamicGraph::allEdges() const {
  std::vector<EdgeRef> Out;
  for (uint32_t Pid = 0; Pid != Edges.size(); ++Pid)
    for (uint32_t I = 0; I != Edges[Pid].size(); ++I)
      Out.push_back({Pid, I + 1});
  return Out;
}

SyncNodeRef ParallelDynamicGraph::partnerOf(SyncNodeRef Ref) const {
  const SyncNode &N = node(Ref);
  if (N.PartnerSeq == NoPartner || N.PartnerSeq >= BySeq.size())
    return SyncNodeRef();
  return BySeq[N.PartnerSeq];
}

bool ParallelDynamicGraph::happensBefore(SyncNodeRef A, SyncNodeRef B) const {
  if (A == B)
    return false;
  // A → B iff B's clock covers A in A's own process: the clock component
  // VC[p] counts how many of p's nodes happen-before-or-equal the owner.
  return node(B).Clock[A.Pid] >= A.Index + 1;
}

bool ParallelDynamicGraph::edgeHappensBefore(EdgeRef A, EdgeRef B) const {
  // end(A) = A.EndNode; start(B) = B.EndNode - 1.
  SyncNodeRef EndA{A.Pid, A.EndNode};
  SyncNodeRef StartB{B.Pid, B.EndNode - 1};
  if (EndA == StartB)
    return true; // same node: A's end is B's start (consecutive edges)
  return happensBefore(EndA, StartB);
}

bool ParallelDynamicGraph::simultaneous(EdgeRef A, EdgeRef B) const {
  if (A.Pid == B.Pid)
    return false; // same process: always ordered
  return !edgeHappensBefore(A, B) && !edgeHappensBefore(B, A);
}

std::span<const SyncNodeRef>
ParallelDynamicGraph::dependentsOf(SyncNodeRef Ref) const {
  uint64_t Seq = node(Ref).Seq;
  if (Seq >= BySeq.size() || !(BySeq[Seq] == Ref))
    return {};
  return {Dependents.data() + DependentsAt[Seq],
          Dependents.data() + DependentsAt[Seq + 1]};
}

EdgeRef ParallelDynamicGraph::edgeContaining(uint32_t Pid,
                                             uint32_t RecordIdx) const {
  // Node RecordIdx values ascend, so the first node at or past the record
  // ends the edge containing it.
  const std::vector<SyncNode> &ProcNodes = Nodes[Pid];
  auto It = std::lower_bound(
      ProcNodes.begin(), ProcNodes.end(), RecordIdx,
      [](const SyncNode &N, uint32_t R) { return N.RecordIdx < R; });
  uint32_t I = uint32_t(It - ProcNodes.begin());
  if (I == 0)
    return EdgeRef();
  // Past the last sync node: the process stopped mid-edge. Treat the open
  // tail as an edge ending at a virtual node after the last one — callers
  // that only need ordering can use the last node conservatively. We
  // return the edge ending at the last node if the position is beyond it.
  if (I == ProcNodes.size())
    return ProcNodes.size() >= 2 ? EdgeRef{Pid, I - 1} : EdgeRef();
  return {Pid, I};
}

ParallelDynamicGraph::WriterCursor
ParallelDynamicGraph::writersBefore(EdgeRef Reader, uint32_t SharedIdx) const {
  WriterCursor Cursor;
  Cursor.Graph = this;
  const size_t P = Nodes.size();
  if ((size_t(SharedIdx) + 1) * P + 1 > WritersAt.size())
    return Cursor; // no edge writes the variable
  const SyncNode &ReaderStart = Nodes[Reader.Pid][Reader.EndNode - 1];
  for (uint32_t Pid = 0; Pid != P; ++Pid) {
    const size_t Key = SharedIdx * P + Pid;
    const uint32_t *Begin = WriterEnds.data() + WritersAt[Key];
    const uint32_t *End = WriterEnds.data() + WritersAt[Key + 1];
    const uint32_t *Before;
    if (Pid == Reader.Pid) {
      // Program order: every earlier edge of the reader's process.
      Before = std::lower_bound(Begin, End, Reader.EndNode);
    } else {
      // Vector clocks are monotone along a process, so its writers split
      // into a prefix ordered before the reader (W → R iff start(R)'s
      // clock covers end(W)), a run simultaneous with it, and a suffix
      // ordered after it (R → W iff start(W)'s clock covers end(R)).
      Before = std::lower_bound(Begin, End, ReaderStart.Clock[Pid]);
      const std::vector<SyncNode> &ProcNodes = Nodes[Pid];
      const uint32_t *After =
          std::partition_point(Before, End, [&](uint32_t EndNode) {
            return ProcNodes[EndNode - 1].Clock[Reader.Pid] <= Reader.EndNode;
          });
      // Later processes overwrite: the witness is the largest (pid, end).
      if (After != Before)
        Cursor.Witness = {Pid, After[-1]};
    }
    if (Before != Begin)
      Cursor.Runs.push_back({Pid, Begin, uint32_t(Before - Begin)});
  }
  return Cursor;
}

EdgeRef ParallelDynamicGraph::WriterCursor::next() {
  // Merge the per-process runs by end-node Seq, latest first.
  Run *Best = nullptr;
  uint64_t BestSeq = 0;
  for (Run &R : Runs) {
    if (R.Left == 0)
      continue;
    uint64_t Seq = Graph->Nodes[R.Pid][R.Ends[R.Left - 1]].Seq;
    if (!Best || Seq > BestSeq) {
      Best = &R;
      BestSeq = Seq;
    }
  }
  if (!Best)
    return EdgeRef();
  --Best->Left;
  return {Best->Pid, Best->Ends[Best->Left]};
}

std::string ParallelDynamicGraph::dot(const Program &P) const {
  DotWriter W("parallel_dynamic_graph");
  auto NodeId = [](uint32_t Pid, uint32_t Idx) {
    return "p" + std::to_string(Pid) + "_n" + std::to_string(Idx);
  };

  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid) {
    W.beginCluster("p" + std::to_string(Pid),
                   "process " + std::to_string(Pid));
    for (uint32_t Idx = 0; Idx != Nodes[Pid].size(); ++Idx) {
      const SyncNode &N = Nodes[Pid][Idx];
      std::string Label = syncKindName(N.Kind);
      if (N.Stmt != InvalidId)
        Label += "\n" + AstPrinter::summarize(*P.stmt(N.Stmt));
      W.node(NodeId(Pid, Idx), Label, {"shape=circle"});
      if (Idx > 0) {
        const InternalEdge &E = Edges[Pid][Idx - 1];
        std::string Attr = "style=bold";
        std::string EdgeLabel;
        if (!E.Reads.empty())
          EdgeLabel += "R:" + std::to_string(E.Reads.size());
        if (!E.Writes.empty())
          EdgeLabel += " W:" + std::to_string(E.Writes.size());
        std::vector<std::string> Attrs = {Attr};
        if (!EdgeLabel.empty())
          Attrs.push_back("label=\"" + DotWriter::escape(EdgeLabel) + "\"");
        W.edge(NodeId(Pid, Idx - 1), NodeId(Pid, Idx), Attrs);
      }
    }
    W.endCluster();
  }

  // Synchronization edges across processes.
  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid)
    for (uint32_t Idx = 0; Idx != Nodes[Pid].size(); ++Idx) {
      SyncNodeRef Partner = partnerOf({Pid, Idx});
      if (Partner.valid())
        W.edge(NodeId(Partner.Pid, Partner.Index), NodeId(Pid, Idx),
               {"style=dashed", "constraint=false"});
    }
  return W.str();
}
