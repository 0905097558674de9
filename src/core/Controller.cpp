//===- core/Controller.cpp ------------------------------------------------===//
//
// Part of PPD. See Controller.h.
//
//===----------------------------------------------------------------------===//

#include "core/Controller.h"

#include <algorithm>

using namespace ppd;

PpdController::PpdController(const CompiledProgram &Prog,
                             const ExecutionLog &Log,
                             PpdControllerOptions Options)
    : PpdController(Prog, PagedLog::fromLog(Log), nullptr,
                    std::move(Options)) {}

PpdController::PpdController(const CompiledProgram &Prog, PagedLog LogIn,
                             std::shared_ptr<const LogIndex> IndexIn,
                             PpdControllerOptions Options)
    : Prog(Prog), Log(std::move(LogIn)),
      Index(IndexIn ? *IndexIn : LogIndex(*Log.Store)),
      Service(Prog, Log, Index, Options.Service), Builder(Prog, Graph),
      ParGraph(std::move(Options.AdoptedGraph)) {
  assert(Log && "a controller needs both a store and a pool");
  for (uint32_t Pid = 0; Pid != Log.Store->numProcs(); ++Pid) {
    const PageStore::SectionMeta &M = Log.Store->section(Pid);
    if (!Prog.isRootCall(M.RootFunc, M.Args.size()))
      Log.Store->markCorrupt("section " + std::to_string(Pid) +
                             " has no root call of this program");
  }
}

std::string PpdController::logFailure() const {
  return Log.Store->failed() ? Log.Store->failure() : std::string();
}

void PpdController::syncServiceStats() {
  ReplayServiceStats S = Service.stats();
  Stats.Replays = S.EngineReplays;
  Stats.ReplayInstructions = S.EngineInstructions;
}

const ReplayResult *PpdController::replayOf(uint32_t Pid,
                                            uint32_t IntervalIdx) const {
  auto It = Cache.find({Pid, IntervalIdx});
  return It == Cache.end() ? nullptr : It->second.Replay.get();
}

const BuiltFragment *PpdController::ensureInterval(uint32_t Pid,
                                                   uint32_t IntervalIdx) {
  auto It = Cache.find({Pid, IntervalIdx});
  if (It != Cache.end())
    return &It->second.Fragment;

  assert(IntervalIdx < Index.intervals(Pid).size() &&
         "interval index out of range");
  ReplayService::ReplayPtr Replay = Service.get(Pid, IntervalIdx);
  syncServiceStats();
  if (!Replay->Ok)
    return nullptr;
  Stats.EventsTraced += Replay->Events.Events.size();
  Stats.TraceBytes += Replay->Events.byteSize();

  CacheEntry Entry;
  Entry.Replay = std::move(Replay);
  Entry.Fragment =
      Builder.addInterval(Pid, IntervalIdx, Entry.Replay->Events);
  // Give the entry node a descriptive label.
  const LogInterval &Interval = Index.intervals(Pid)[IntervalIdx];
  const EBlockInfo &EBlock = Prog.eblock(Interval.EBlock);
  Graph.node(Entry.Fragment.EntryNode).Label =
      Graph.intern("ENTRY " + Prog.func(EBlock.Func).Name + " [p" +
                   std::to_string(Pid) + " i" + std::to_string(IntervalIdx) +
                   "]");
  Graph.markInterval(Pid, IntervalIdx);

  auto [Pos, Inserted] =
      Cache.emplace(std::make_pair(Pid, IntervalIdx), std::move(Entry));
  assert(Inserted && "interval cached twice");
  spliceSyncEdges(Pid, IntervalIdx);
  return &Pos->second.Fragment;
}

DynNodeId PpdController::startAtFailure(uint32_t Pid) {
  const LogInterval *Open = Index.lastOpenInterval(Pid);
  if (!Open)
    return InvalidId;
  const BuiltFragment *Fragment = ensureInterval(Pid, Open->Index);
  return Fragment ? Fragment->LastNode : InvalidId;
}

DynNodeId PpdController::startAtLastEvent(uint32_t Pid) {
  if (const LogInterval *Open = Index.lastOpenInterval(Pid))
    if (const BuiltFragment *Fragment = ensureInterval(Pid, Open->Index))
      return Fragment->LastNode;
  // All intervals closed: the process's last event lives in the interval
  // whose postlog was written last (the outermost/final segment), not in
  // the interval with the highest number (that's the most deeply nested
  // call).
  const LogInterval *Latest = nullptr;
  for (const LogInterval &Interval : Index.intervals(Pid))
    if (!Latest || Interval.PostlogRecord > Latest->PostlogRecord)
      Latest = &Interval;
  if (!Latest)
    return InvalidId;
  const BuiltFragment *Fragment = ensureInterval(Pid, Latest->Index);
  return Fragment ? Fragment->LastNode : InvalidId;
}

DynamicGraph::EdgeRange PpdController::dependencesOf(DynNodeId Node) {
  // Resolve any cross-process reads still pending on this node. Copy the
  // node's coordinates up front: resolveCrossRead adds nodes, which can
  // reallocate the graph's node storage and invalidate references into it.
  const uint32_t Pid = Graph.node(Node).Pid;
  const uint32_t Interval = Graph.node(Node).Interval;
  if (Pid != InvalidId && Interval != InvalidId) {
    auto It = Cache.find({Pid, Interval});
    if (It != Cache.end()) {
      std::vector<UnresolvedRead> &Pending = It->second.Fragment.Unresolved;
      for (auto ReadIt = Pending.begin(); ReadIt != Pending.end();) {
        if (ReadIt->Node == Node) {
          resolveCrossRead(Pid, *ReadIt);
          ReadIt = Pending.erase(ReadIt);
        } else {
          ++ReadIt;
        }
      }
    }
  }
  return Graph.inEdges(Node);
}

unsigned PpdController::resolveAllCrossReads() {
  unsigned Resolutions = 0;
  // Fragments may be added while resolving; iterate until stable.
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (auto &[Key, Entry] : Cache) {
      if (Entry.Fragment.Unresolved.empty())
        continue;
      std::vector<UnresolvedRead> Pending;
      Pending.swap(Entry.Fragment.Unresolved);
      for (const UnresolvedRead &Read : Pending) {
        resolveCrossRead(Key.first, Read);
        ++Resolutions;
      }
      Changed = true;
      break; // Cache may have grown; restart iteration.
    }
  }
  return Resolutions;
}

CrossReadResolution
PpdController::resolveCrossRead(uint32_t ReaderPid,
                                const UnresolvedRead &Read) {
  CrossReadResolution Result;
  const ParallelDynamicGraph &PG = parallelGraph();
  uint32_t SharedIdx = Prog.Symbols->var(Read.Var).SharedIndex;

  EdgeRef ReaderEdge = PG.edgeContaining(ReaderPid, Read.LogCursor);
  if (!ReaderEdge.valid()) {
    // Before the first sync node or no edges: treat as initial state.
    DynNode N;
    N.Kind = DynNodeKind::Initial;
    N.Label = Builder.initialLabel(Read.Var);
    DynNodeId Init = Graph.addNode(std::move(N));
    Graph.addEdge({DynEdgeKind::CrossData, Init, Read.Node, Read.Var, -1});
    Result.Outcome = CrossReadResolution::Kind::Initial;
    Result.Producer = Init;
    return Result;
  }

  ParallelDynamicGraph::WriterCursor Producers =
      PG.writersBefore(ReaderEdge, SharedIdx);
  EdgeRef RaceWitness = Producers.raceWitness();

  if (RaceWitness.valid()) {
    DynNode N;
    N.Kind = DynNodeKind::Unresolved;
    N.Label = Graph.intern("RACE on " + Prog.Symbols->var(Read.Var).Name +
                           " (p" + std::to_string(RaceWitness.Pid) + ")");
    DynNodeId RaceNode = Graph.addNode(std::move(N));
    Graph.addEdge(
        {DynEdgeKind::CrossData, RaceNode, Read.Node, Read.Var, -1});
    Result.Outcome = CrossReadResolution::Kind::Race;
    Result.RaceEdge = RaceWitness;
    return Result;
  }

  // WRITE_SETs are variable-granular: for an array element read, the
  // latest writing edge may have written only *other* elements. Walk the
  // writers latest-first and take the first that traces to an event
  // actually covering the element; if none did, the element still holds
  // its initial value.
  for (EdgeRef Producer = Producers.next(); Producer.valid();
       Producer = Producers.next()) {
    bool TraceOk = false;
    DynNodeId Writer =
        materializeWriter(Producer, Read.Var, Read.Index, TraceOk);
    if (!TraceOk) {
      Result.Outcome = CrossReadResolution::Kind::Unknown;
      return Result;
    }
    if (Writer == InvalidId)
      continue; // wrote the variable, but not this element
    Graph.addEdge(
        {DynEdgeKind::CrossData, Writer, Read.Node, Read.Var, -1});
    Result.Outcome = CrossReadResolution::Kind::Resolved;
    Result.Producer = Writer;
    return Result;
  }

  DynNode N;
  N.Kind = DynNodeKind::Initial;
  N.Label = Builder.initialLabel(Read.Var);
  DynNodeId Init = Graph.addNode(std::move(N));
  Graph.addEdge({DynEdgeKind::CrossData, Init, Read.Node, Read.Var, -1});
  Result.Outcome = CrossReadResolution::Kind::Initial;
  Result.Producer = Init;
  return Result;
}

DynNodeId PpdController::materializeWriter(EdgeRef Producer, VarId Var,
                                           int64_t Index, bool &TraceOk) {
  const ParallelDynamicGraph &PG = parallelGraph();
  const std::vector<SyncNode> &ProcNodes = PG.nodes(Producer.Pid);
  uint32_t Begin = ProcNodes[Producer.EndNode - 1].RecordIdx;
  uint32_t End = ProcNodes[Producer.EndNode].RecordIdx;

  // Locate the log interval covering the edge's record span and trace it.
  TraceOk = false;
  const LogInterval *Interval = this->Index.enclosing(Producer.Pid, End);
  if (!Interval)
    return InvalidId;
  const BuiltFragment *Fragment =
      ensureInterval(Producer.Pid, Interval->Index);
  if (!Fragment)
    return InvalidId;
  const ReplayResult *Replay = replayOf(Producer.Pid, Interval->Index);
  if (!Replay)
    return InvalidId;
  TraceOk = true;

  // Last event within the edge's record span writing the variable.
  DynNodeId Best = InvalidId;
  for (const TraceEvent &E : Replay->Events.Events) {
    if (E.LogCursor <= Begin || E.LogCursor > End)
      continue;
    bool WritesVar = false;
    if (E.Kind == TraceEventKind::Stmt) {
      for (const TraceAccess &W : E.Writes)
        if (W.Var == Var && (W.Index == Index || W.Index < 0 || Index < 0))
          WritesVar = true;
    } else if (E.Kind == TraceEventKind::CallSkipped) {
      WritesVar = Prog.ModRef.Mod[E.Callee].contains(Var);
    }
    if (WritesVar && E.Index < Fragment->EventNodes.size())
      Best = Fragment->EventNodes[E.Index];
  }
  return Best;
}

uint32_t PpdController::recordEnd(uint32_t Pid) const {
  return uint32_t(Log.Store->section(Pid).NumRecords);
}

const ParallelDynamicGraph &PpdController::parallelGraph() {
  if (ParGraph)
    return *ParGraph;
  // Built from the sync rows of one skim per section: no section is
  // decoded or faulted into the pool, and peak memory is one section's
  // bytes plus the graph.
  std::shared_ptr<const ParallelDynamicGraph> PG =
      ParallelDynamicGraph::fromStore(*Log.Store, Prog.Symbols->NumSharedVars,
                                      Prog.Ast->numStmts());
  if (!PG) {
    // logFailure() now replaces every answer; an empty graph keeps the
    // session's internals well defined until the caller reports it.
    auto Empty = std::make_shared<ParallelDynamicGraph>(
        Prog.Symbols->NumSharedVars, Log.Store->numProcs());
    (void)Empty->finalize(); // nothing to check in an empty graph
    PG = std::move(Empty);
  }
  ParGraph = std::move(PG);
  return *ParGraph;
}

RaceDetectionResult PpdController::detectRaces() {
  RaceDetector Detector(parallelGraph(), *Prog.Symbols);
  return Detector.detect();
}

DynNodeId PpdController::expandCall(DynNodeId SubGraphNode) {
  // Copy the coordinates: ensureInterval below adds nodes, which can
  // reallocate the graph's node storage and invalidate references.
  const uint32_t Pid = Graph.node(SubGraphNode).Pid;
  const uint32_t Interval = Graph.node(SubGraphNode).Interval;
  if (Graph.node(SubGraphNode).Kind != DynNodeKind::SubGraph ||
      Graph.node(SubGraphNode).Expanded)
    return InvalidId;
  auto It = Cache.find({Pid, Interval});
  if (It == Cache.end())
    return InvalidId;
  // Skipped calls are listed in creation order, so by ascending node id.
  const std::vector<SkippedCall> &Skipped = It->second.Fragment.Skipped;
  auto Skip = std::lower_bound(
      Skipped.begin(), Skipped.end(), SubGraphNode,
      [](const SkippedCall &S, DynNodeId Id) { return S.Node < Id; });
  if (Skip == Skipped.end() || Skip->Node != SubGraphNode)
    return InvalidId;
  const LogInterval *Nested =
      Index.intervalAtRecord(Pid, Skip->CalleeRecordsAt);
  if (!Nested)
    return InvalidId;
  const BuiltFragment *Fragment = ensureInterval(Pid, Nested->Index);
  if (!Fragment)
    return InvalidId;
  Graph.node(SubGraphNode).Expanded = true;
  Graph.addEdge({DynEdgeKind::Flow, SubGraphNode, Fragment->EntryNode,
                 InvalidId, -1});
  return Fragment->EntryNode;
}

DynNodeId PpdController::eventNodeNear(uint32_t Pid, uint32_t RecordIdx,
                                       StmtId Stmt) {
  const LogInterval *Interval = Index.enclosing(Pid, RecordIdx);
  if (!Interval)
    return InvalidId;
  auto It = Cache.find({Pid, Interval->Index});
  if (It == Cache.end())
    return InvalidId;
  const ReplayResult &Replay = *It->second.Replay;
  const BuiltFragment &Fragment = It->second.Fragment;
  DynNodeId Best = InvalidId;
  for (const TraceEvent &E : Replay.Events.Events) {
    if (E.Stmt != Stmt || E.LogCursor > RecordIdx)
      continue;
    if (E.Index < Fragment.EventNodes.size())
      Best = Fragment.EventNodes[E.Index];
  }
  return Best;
}

void PpdController::spliceSyncEdges(uint32_t Pid, uint32_t IntervalIdx) {
  // Add synchronization edges whose endpoints both have traced fragments.
  const ParallelDynamicGraph &PG = parallelGraph();
  const LogInterval &Interval = Index.intervals(Pid)[IntervalIdx];
  uint32_t End = Interval.PostlogRecord == InvalidId
                     ? recordEnd(Pid)
                     : Interval.PostlogRecord;

  // The interval's sync nodes are a contiguous run (RecordIdx ascends).
  const std::vector<SyncNode> &ProcNodes = PG.nodes(Pid);
  auto First = std::lower_bound(
      ProcNodes.begin(), ProcNodes.end(), Interval.PrelogRecord,
      [](const SyncNode &N, uint32_t R) { return N.RecordIdx < R; });
  for (uint32_t NodeIdx = uint32_t(First - ProcNodes.begin());
       NodeIdx != ProcNodes.size() && ProcNodes[NodeIdx].RecordIdx <= End;
       ++NodeIdx) {
    const SyncNode &N = ProcNodes[NodeIdx];
    // Edge into this node (partner → here).
    SyncNodeRef Partner = PG.partnerOf({Pid, NodeIdx});
    if (Partner.valid()) {
      const SyncNode &PN = PG.node(Partner);
      DynNodeId From =
          eventNodeNear(Partner.Pid, PN.RecordIdx, PN.Stmt);
      DynNodeId To = eventNodeNear(Pid, N.RecordIdx, N.Stmt);
      if (From != InvalidId && To != InvalidId)
        Graph.addEdge({DynEdgeKind::Sync, From, To, InvalidId, -1});
    }
    // Edges out of this node: partners in other processes pointing here.
    for (SyncNodeRef Dependent : PG.dependentsOf({Pid, NodeIdx})) {
      if (Dependent.Pid == Pid)
        continue;
      const SyncNode &ON = PG.node(Dependent);
      DynNodeId From = eventNodeNear(Pid, N.RecordIdx, N.Stmt);
      DynNodeId To = eventNodeNear(Dependent.Pid, ON.RecordIdx, ON.Stmt);
      if (From != InvalidId && To != InvalidId)
        Graph.addEdge({DynEdgeKind::Sync, From, To, InvalidId, -1});
    }
  }
}

ReplayResult
PpdController::whatIf(uint32_t Pid, uint32_t IntervalIdx,
                      const std::vector<ReplayOverride> &Overrides) {
  assert(IntervalIdx < Index.intervals(Pid).size() &&
         "interval index out of range");
  ReplayResult Result = *Service.get(Pid, IntervalIdx, Overrides);
  syncServiceStats();
  return Result;
}

RestoredState PpdController::restoreGlobals(uint32_t Pid,
                                            uint32_t UptoInterval) const {
  RestoredState State;
  State.Shared.assign(Prog.Symbols->SharedMemorySize, 0);
  State.PrivateGlobals.assign(Prog.Symbols->PrivateGlobalSize, 0);
  for (VarId V : Prog.Symbols->Globals) {
    const VarInfo &Info = Prog.Symbols->var(V);
    if (Info.isArray())
      continue;
    if (Info.isShared())
      State.Shared[Info.Offset] = Info.Init;
    else
      State.PrivateGlobals[Info.Offset] = Info.Init;
  }

  assert(UptoInterval < Index.intervals(Pid).size() &&
         "interval index out of range");
  uint32_t EndRecord = Index.intervals(Pid)[UptoInterval].PostlogRecord;
  if (EndRecord == InvalidId)
    EndRecord = recordEnd(Pid);

  // §5.7: "the accumulation of the information carried by all the postlogs
  // from postlog(1) up to postlog(i) is the same as the program state at
  // the time postlog(i) is made." (Globals; unit logs refresh shared
  // values read from other processes.) The walk pins the process's
  // section for its duration. A failed pin or a record naming a variable
  // the program does not have leaves the store failed; the caller reports
  // logFailure().
  BufferPool::Pin Pin = Log.Pool->pin(*Log.Store, Pid);
  if (!Pin)
    return State;
  const RecordSeq &Records = Pin.log().Records;
  for (uint32_t Idx = 0; Idx <= EndRecord && Idx < Records.size(); ++Idx) {
    const LogRecord &R = Records[Idx];
    if (R.Kind != LogRecordKind::Postlog && R.Kind != LogRecordKind::UnitLog)
      continue;
    for (const VarValue &V : R.Vars) {
      if (!Prog.Symbols->fits(V.Var, V.Values.size())) {
        Log.Store->markCorrupt("section " + std::to_string(Pid) +
                               ": a postlog's variables do not fit the "
                               "program");
        return State;
      }
      const VarInfo &Info = Prog.Symbols->var(V.Var);
      if (Info.Kind == VarKind::SharedGlobal)
        std::copy(V.Values.begin(), V.Values.end(),
                  State.Shared.begin() + Info.Offset);
      else if (Info.Kind == VarKind::PrivateGlobal)
        std::copy(V.Values.begin(), V.Values.end(),
                  State.PrivateGlobals.begin() + Info.Offset);
    }
  }
  return State;
}
