//===- pardyn/ParallelDynamicGraph.cpp ------------------------------------===//
//
// Part of PPD. See ParallelDynamicGraph.h.
//
//===----------------------------------------------------------------------===//

#include "pardyn/ParallelDynamicGraph.h"

#include "lang/Ast.h"
#include "lang/AstPrinter.h"
#include "log/PageStore.h"
#include "support/DotWriter.h"

#include <algorithm>
#include <cassert>

using namespace ppd;

ParallelDynamicGraph::ParallelDynamicGraph(unsigned NumSharedVars,
                                           uint32_t NumProcs)
    : Nodes(NumProcs), Clocks(NumProcs), Clocked(NumProcs, 0),
      EdgeWords(NumProcs), SetWords((NumSharedVars + 63) / 64),
      NumShared(NumSharedVars) {}

ParallelDynamicGraph::ParallelDynamicGraph(const ExecutionLog &Log,
                                           unsigned NumSharedVars)
    : ParallelDynamicGraph(NumSharedVars, uint32_t(Log.Procs.size())) {
  for (uint32_t Pid = 0; Pid != Log.Procs.size(); ++Pid)
    appendProcess(Pid, Log.Procs[Pid], 0);
  // A log recorded by a run is well formed by construction; logs from
  // files that may be corrupt take the paged path, whose callers check
  // finalize().
  bool Ok = finalize();
  assert(Ok && "inconsistent sync records in an in-memory log");
  (void)Ok;
}

std::unique_ptr<ParallelDynamicGraph>
ParallelDynamicGraph::fromStore(const PageStore &Store,
                                unsigned NumSharedVars, uint32_t NumStmts) {
  auto PG = std::make_unique<ParallelDynamicGraph>(NumSharedVars,
                                                   Store.numProcs());
  std::vector<LogInterval> Intervals;
  std::vector<uint32_t> Open;
  for (uint32_t Pid = 0; Pid != Store.numProcs(); ++Pid) {
    SyncRows Rows;
    Intervals.clear();
    Open.clear();
    if (!Store.skimIndex(Pid, Intervals, Open, &Rows))
      return nullptr;
    PG->adoptProcess(Pid, std::move(Rows));
  }
  if (!PG->rowsValid(NumStmts, Store) || !PG->finalize()) {
    Store.markCorrupt("sync records are inconsistent");
    return nullptr;
  }
  return PG;
}

bool ParallelDynamicGraph::rowsValid(uint32_t NumStmts,
                                     const PageStore &Store) const {
  if (Malformed || Store.numProcs() != Nodes.size())
    return false;
  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid) {
    const uint64_t NumRecords = Store.section(Pid).NumRecords;
    uint64_t Next = 0; // the least record index the next node may have
    for (const SyncNode &N : Nodes[Pid]) {
      // Node records ascend, which the graph's binary searches rely on.
      if (uint8_t(N.Kind) > uint8_t(SyncKind::Stopped) ||
          (N.Stmt != InvalidId && N.Stmt >= NumStmts) ||
          N.RecordIdx < Next || N.RecordIdx >= NumRecords)
        return false;
      Next = uint64_t(N.RecordIdx) + 1;
    }
  }
  return true;
}

uint64_t *ParallelDynamicGraph::appendEdge(uint32_t Pid) {
  std::vector<uint64_t> &Words = EdgeWords[Pid];
  Words.resize(Words.size() + 2 * size_t(SetWords), 0);
  return Words.data() + Words.size() - 2 * size_t(SetWords);
}

void ParallelDynamicGraph::insertIds(uint64_t *Words,
                                     std::span<const uint32_t> Ids) {
  // Shared ids past the program's shared segment cannot come from a real
  // run; they mark the graph malformed (finalize() reports it) instead of
  // sizing sets and indexes by hostile values.
  for (uint32_t S : Ids)
    if (S < NumShared)
      Words[S / 64] |= uint64_t(1) << (S % 64);
    else
      Malformed = true;
}

void ParallelDynamicGraph::appendProcess(uint32_t Pid, const ProcessLog &PL,
                                         uint32_t FromRecord) {
  assert(Pid <= Nodes.size() && "pid out of range");
  if (Pid == Nodes.size()) {
    Nodes.emplace_back();
    Clocks.emplace_back();
    Clocked.push_back(0);
    EdgeWords.emplace_back();
  }
  // Collect the process's sync nodes and internal edges.
  for (uint32_t Idx = FromRecord; Idx < PL.Records.size(); ++Idx) {
    const LogRecord &R = PL.Records[Idx];
    if (R.Kind != LogRecordKind::SyncEvent)
      continue;
    if (!Nodes[Pid].empty()) {
      uint64_t *Words = appendEdge(Pid);
      insertIds(Words, {R.ReadSet.begin(), R.ReadSet.end()});
      insertIds(Words + SetWords, {R.WriteSet.begin(), R.WriteSet.end()});
    }
    Nodes[Pid].push_back(
        {R.Sync, R.Id, R.Seq, R.PartnerSeq, R.Stmt, Idx});
  }
}

void ParallelDynamicGraph::adoptProcess(uint32_t Pid, SyncRows Rows) {
  assert(Pid < Nodes.size() && "pid out of range");
  assert(Nodes[Pid].empty() && "process added twice");
  assert(Rows.IdsAt.size() == 2 * Rows.Nodes.size() + 1 &&
         "every row closes its READ and WRITE ids");
  Nodes[Pid] = std::move(Rows.Nodes);
  EdgeWords[Pid].assign(size_t(numEdges(Pid)) * 2 * SetWords, 0);
  for (uint32_t I = 1; I < Nodes[Pid].size(); ++I) {
    uint64_t *Words =
        EdgeWords[Pid].data() + size_t(I - 1) * 2 * SetWords;
    insertIds(Words, Rows.reads(I));
    insertIds(Words + SetWords, Rows.writes(I));
  }
}

bool ParallelDynamicGraph::finalize() {
  // A batch build is one tail round over a graph with nothing finalized.
  BySeq.clear();
  FinalizeWatermark = 0;
  std::fill(Clocked.begin(), Clocked.end(), 0);
  return finalizeTail();
}

bool ParallelDynamicGraph::finalizeTail() {
  if (Malformed)
    return false;
  const uint32_t P = uint32_t(Nodes.size());
  // Re-stride the clock matrices when streaming grew the process count,
  // zero-extending finalized clocks: component p stays 0 for old nodes
  // because none of a later-arriving process's nodes can happen-before a
  // node sealed in an earlier cut.
  if (ClockStride != P) {
    for (uint32_t Pid = 0; Pid != P; ++Pid) {
      std::vector<uint32_t> Wide(size_t(Clocked[Pid]) * P, 0);
      for (uint32_t I = 0; I != Clocked[Pid]; ++I)
        std::copy_n(Clocks[Pid].data() + size_t(I) * ClockStride,
                    ClockStride, Wide.data() + size_t(I) * P);
      Clocks[Pid] = std::move(Wide);
    }
    ClockStride = P;
  }
  // Count the appended nodes (no clock yet).
  uint64_t NumNew = 0;
  uint64_t MaxSeq = 0;
  for (uint32_t Pid = 0; Pid != P; ++Pid) {
    NumNew += Nodes[Pid].size() - Clocked[Pid];
    for (size_t I = Clocked[Pid]; I != Nodes[Pid].size(); ++I)
      MaxSeq = std::max(MaxSeq, Nodes[Pid][I].Seq);
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
  for (uint32_t Pid = 0; Pid != P; ++Pid) {
    for (uint32_t Idx = Clocked[Pid]; Idx != Nodes[Pid].size(); ++Idx) {
      const SyncNode &N = Nodes[Pid][Idx];
      if (N.Seq < FinalizeWatermark || BySeq[N.Seq].valid())
        return false;
      BySeq[N.Seq] = {Pid, Idx};
    }
    Clocks[Pid].resize(Nodes[Pid].size() * size_t(P), 0);
  }

  // Vector clocks, processed in global seq order — a topological order of
  // the graph, since every synchronization edge goes from a lower to a
  // higher sequence number (checked here: a partner must precede its
  // dependent). Every predecessor (previous node of the process, partner)
  // is either below the watermark — finalized in an earlier round — or
  // earlier in this walk.
  for (uint64_t S = FinalizeWatermark; S < BySeq.size(); ++S) {
    const SyncNodeRef Ref = BySeq[S];
    const SyncNode &N = Nodes[Ref.Pid][Ref.Index];
    if (N.PartnerSeq != NoPartner && N.PartnerSeq >= N.Seq)
      return false;
    if (Ref.Index != Clocked[Ref.Pid])
      return false; // program order disagrees with the global order
    uint32_t *Clock = Clocks[Ref.Pid].data() + size_t(Ref.Index) * P;
    if (Ref.Index > 0)
      std::copy_n(Clock - P, P, Clock);
    else
      std::fill_n(Clock, P, 0);
    if (N.PartnerSeq != NoPartner) {
      const SyncNodeRef Partner = BySeq[N.PartnerSeq];
      const uint32_t *From =
          Clocks[Partner.Pid].data() + size_t(Partner.Index) * P;
      for (uint32_t I = 0; I != P; ++I)
        Clock[I] = std::max(Clock[I], From[I]);
    }
    Clock[Ref.Pid] = Ref.Index + 1;
    ++Clocked[Ref.Pid];
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
    for (const InternalEdge &E : edges(Pid))
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
    for (const InternalEdge &E : edges(Pid))
      E.Writes.forEach(
          [&](unsigned S) { WriterEnds[Fill[S * P + Pid]++] = E.EndNode; });
}

std::vector<EdgeRef> ParallelDynamicGraph::allEdges() const {
  std::vector<EdgeRef> Out;
  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid)
    for (uint32_t I = 0; I != numEdges(Pid); ++I)
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
  return clockAt(B.Pid, B.Index, A.Pid) >= A.Index + 1;
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

namespace {

/// std::partition_point over [First, Last) that probes 1, 2, 4, ...
/// entries past First before it bisects: O(log d) for a point d entries
/// in, so forward-only searches from the previous answer sum to linear.
template <typename Pred>
const uint32_t *gallop(const uint32_t *First, const uint32_t *Last,
                       Pred Before) {
  size_t Step = 1;
  while (Step <= size_t(Last - First) && Before(First[Step - 1])) {
    First += Step;
    Step *= 2;
  }
  return std::partition_point(
      First, First + std::min(Step, size_t(Last - First)), Before);
}

} // namespace

std::span<const uint32_t>
ParallelDynamicGraph::writerEnds(uint32_t SharedIdx, uint32_t Pid) const {
  const size_t Key = size_t(SharedIdx) * Nodes.size() + Pid;
  if (Key + 1 >= WritersAt.size())
    return {}; // no edge writes the variable
  return {WriterEnds.data() + WritersAt[Key],
          WriterEnds.data() + WritersAt[Key + 1]};
}

ParallelDynamicGraph::Window
ParallelDynamicGraph::simultaneousWindow(EdgeRef Edge, uint32_t Pid,
                                         Window From,
                                         const uint32_t *End) const {
  // (Pid, k) → Edge iff start(Edge)'s clock covers node k.
  const uint32_t Covered = clockAt(Edge.Pid, Edge.EndNode - 1, Pid);
  const uint32_t *Lo =
      gallop(From.Lo, End, [&](uint32_t K) { return K < Covered; });
  // Edge → (Pid, k) iff start(k)'s clock covers Edge's end node. Nothing
  // before Lo is ordered after Edge, so the search may start at Lo.
  const uint32_t *Hi = gallop(std::max(Lo, From.Hi), End, [&](uint32_t K) {
    return clockAt(Pid, K - 1, Edge.Pid) <= Edge.EndNode;
  });
  return {Lo, Hi};
}

ParallelDynamicGraph::WriterCursor
ParallelDynamicGraph::writersBefore(EdgeRef Reader, uint32_t SharedIdx) const {
  WriterCursor Cursor;
  Cursor.Graph = this;
  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid) {
    std::span<const uint32_t> Ends = writerEnds(SharedIdx, Pid);
    if (Ends.empty())
      continue;
    const uint32_t *Begin = Ends.data();
    const uint32_t *End = Begin + Ends.size();
    const uint32_t *Before;
    if (Pid == Reader.Pid) {
      // Program order: every earlier edge of the reader's process.
      Before = std::lower_bound(Begin, End, Reader.EndNode);
    } else {
      Window W = simultaneousWindow(Reader, Pid, {Begin, Begin}, End);
      Before = W.Lo;
      // Later processes overwrite: the witness is the largest (pid, end).
      if (W.Hi != W.Lo)
        Cursor.Witness = {Pid, W.Hi[-1]};
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
        const InternalEdge E = edge({Pid, Idx});
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
