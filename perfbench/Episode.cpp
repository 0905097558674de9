//===- perfbench/Episode.cpp - One in-process debugging episode -----------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//

#include "Episode.h"

#include "cfg/Cfg.h"
#include "compiler/Compiler.h"
#include "compiler/EBlockPartition.h"
#include "core/Controller.h"
#include "core/Replay.h"
#include "dataflow/ModRef.h"
#include "lang/Parser.h"
#include "log/BufferPool.h"
#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "pardyn/ParallelDynamicGraph.h"
#include "pdg/SimplifiedStaticGraph.h"
#include "pdg/StaticPdg.h"
#include "sema/CallGraph.h"
#include "sema/Sema.h"
#include "vm/Machine.h"

#include <algorithm>
#include <set>

using namespace ppd;

namespace perfbench {

namespace {

double msSince(uint64_t StartNs) { return double(nowNs() - StartNs) / 1e6; }

/// Checks the run's outcome and every printed value against the
/// generator's references. Empty on success.
std::string checkRun(const Workload &W, const RunResult &Run,
                     const ExecutionLog &Log) {
  if (W.ExpectFailure) {
    if (Run.Outcome != RunResult::Status::Failed || Run.Error.Pid != 0 ||
        Run.Error.Kind != RuntimeErrorKind::DivideByZero)
      return "run did not end in the planted failure";
  } else if (Run.Outcome != RunResult::Status::Completed) {
    return "run did not complete";
  }
  std::map<uint32_t, std::vector<int64_t>> Printed;
  for (const OutputRecord &O : Log.Output)
    Printed[O.Pid].push_back(O.Value);
  if (Printed != W.Output)
    return "program output differs from the reference";
  return "";
}

/// Checks the race set: every planted racy variable reported, no
/// lock-only variable reported.
std::string checkRaces(const Workload &W, const CompiledProgram &Prog,
                       const RaceDetectionResult &Races) {
  std::set<std::string> Reported;
  for (const Race &R : Races.Races)
    Reported.insert(Prog.Symbols->var(R.Var).Name);
  for (const std::string &V : W.RacyVars)
    if (!Reported.count(V))
      return "planted race on " + V + " not reported";
  for (const std::string &V : W.LockedVars)
    if (Reported.count(V))
      return "race reported on lock-protected " + V;
  return "";
}

/// The last Singular node among [Lo, Hi): the callee's last executed
/// statement after an expansion.
DynNodeId lastSingular(const DynamicGraph &G, DynNodeId Lo, DynNodeId Hi) {
  for (DynNodeId N = Hi; N-- > Lo;)
    if (G.node(N).Kind == DynNodeKind::Singular)
      return N;
  return InvalidId;
}

/// The seeded backward walk. Each step asks for the dependences of the
/// current node and expands every unexpanded call it depends on (these
/// expansions and cross-process reads are what replay); it then moves to
/// a predecessor, or into a freshly expanded callee, or back to a saved
/// resume point when the chain ends.
void walk(PpdController &C, DynNodeId Root, const WalkShape &Shape,
          uint64_t Seed, SpanBuffer *Spans, EpisodeResult &R) {
  uint64_t Rng = Seed;
  DynNodeId Cur = Root;
  bool Restarted = false;
  std::vector<DynNodeId> Resume;
  for (unsigned Step = 0; Step != Shape.Steps; ++Step) {
    uint64_t ReplaysBefore = C.stats().Replays;
    std::vector<DynNodeId> Next;
    DynNodeId Cross = InvalidId;
    DynNodeId Descend = InvalidId;
    uint64_t T0 = nowNs();
    {
      SpanScope S(Spans, "core.flowback_step");
      for (const DynEdge &E : C.dependencesOf(Cur)) {
        if (E.Kind != DynEdgeKind::Data && E.Kind != DynEdgeKind::CrossData)
          continue;
        DynNodeKind Kind = C.graph().node(E.From).Kind;
        if (Kind == DynNodeKind::Entry)
          continue;
        if (Kind != DynNodeKind::SubGraph) {
          Next.push_back(E.From);
          if (E.Kind == DynEdgeKind::CrossData && Cross == InvalidId)
            Cross = E.From;
          continue;
        }
        if (C.graph().node(E.From).Expanded)
          continue;
        DynNodeId Before = C.graph().numNodes();
        if (C.expandCall(E.From) != InvalidId)
          Descend = lastSingular(C.graph(), Before, C.graph().numNodes());
      }
    }
    R.StepUs.push_back(double(nowNs() - T0) / 1e3);
    R.StepCold.push_back(C.stats().Replays != ReplaysBefore);

    // Prefer a cross-process producer, else the first data dependence
    // (the debugger's `back`). Side trips and descents remember where to
    // resume; descents only from the outermost chain, so a finished
    // callee returns the walk to the chain it left.
    DynNodeId Preferred = Cross != InvalidId ? Cross
                          : Next.empty()     ? InvalidId
                                             : Next.front();
    if (Descend != InvalidId &&
        splitMix64(Rng) % 1000 < Shape.DescendPerMille) {
      if (Resume.empty())
        Resume.push_back(Preferred != InvalidId ? Preferred : Root);
      Cur = Descend;
    } else if (Preferred != InvalidId) {
      Cur = Preferred;
      if (Next.size() > 1 &&
          (Restarted || splitMix64(Rng) % 1000 < Shape.SidePerMille)) {
        Resume.push_back(Preferred);
        Cur = Next[splitMix64(Rng) % Next.size()];
      }
    } else if (!Resume.empty()) {
      Cur = Resume.back();
      Resume.pop_back();
    } else {
      Cur = Root;
    }
    Restarted = Cur == Root;
  }
}

/// The intervals the episode replayed, for the replay-tier throughput.
std::vector<std::pair<uint32_t, uint32_t>>
tracedIntervals(const PpdController &C) {
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  const DynamicGraph &G = C.graph();
  for (DynNodeId N = 0; N != G.numNodes(); ++N) {
    const DynNode &Node = G.node(N);
    if (Node.Pid != InvalidId && Node.Interval != InvalidId)
      Seen.insert({Node.Pid, Node.Interval});
  }
  return {Seen.begin(), Seen.end()};
}

/// Replays \p Intervals on \p Kind until at least 2 ms have elapsed,
/// after untimed warm-up passes that let every interval's function reach
/// the JIT's hotness threshold and compile; returns million instructions
/// per second.
double replayThroughput(const CompiledProgram &Prog, const ExecutionLog &Log,
                        const LogIndex &Index,
                        const std::vector<std::pair<uint32_t, uint32_t>> &Ivs,
                        ReplayEngineKind Kind, bool &Ok) {
  ReplayEngine Engine(Prog);
  ReplayOptions Options;
  Options.Engine = Kind;
  auto Sweep = [&] {
    uint64_t Instr = 0;
    for (const auto &[Pid, Idx] : Ivs) {
      ReplayResult Res =
          Engine.replay(Log, Pid, Index.intervals(Pid)[Idx], Options);
      Ok &= Res.Ok;
      Instr += Res.Instructions;
    }
    return Instr;
  };
  for (int Pass = 0; Pass != 3; ++Pass)
    Sweep();
  uint64_t Instr = 0;
  uint64_t T0 = nowNs();
  do
    Instr += Sweep();
  while (nowNs() - T0 < 2'000'000 && Instr != 0);
  double Seconds = double(nowNs() - T0) / 1e9;
  return Seconds > 0 ? double(Instr) / Seconds / 1e6 : 0;
}

/// Times the front end's public entry points one by one on a fresh parse
/// of \p Source (outside the episode span).
void frontEndBreakdown(const std::string &Source, EpisodeResult &R,
                       SpanBuffer *Spans) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = Parser::parse(Source, Diags);
  if (!P)
    return;
  uint64_t T = nowNs();
  std::unique_ptr<SymbolTable> Symbols;
  {
    SpanScope S(Spans, "sema.run");
    Symbols = Sema(*P, Diags).run();
  }
  R.SemaMs = msSince(T);
  if (!Symbols)
    return;
  T = nowNs();
  ModRefResult<BitVarSet> ModRef;
  {
    SpanScope S(Spans, "dataflow.modref");
    CallGraph CG(*P);
    ModRef = computeModRef<BitVarSet>(*P, *Symbols, CG);
  }
  R.ModRefMs = msSince(T);
  CallGraph CG(*P);
  PartitionPlan Plan = planEBlocks(*P, CG, CompileOptions().EBlocks);
  auto IsLogged = [&Plan](const FuncDecl &F) { return Plan.isLogged(F); };
  std::vector<std::unique_ptr<Cfg>> Cfgs;
  T = nowNs();
  {
    SpanScope S(Spans, "cfg.build");
    for (const auto &F : P->Funcs)
      Cfgs.push_back(std::make_unique<Cfg>(*P, *F));
  }
  R.CfgMs = msSince(T);
  T = nowNs();
  {
    SpanScope S(Spans, "pdg.build");
    for (size_t I = 0; I != P->Funcs.size(); ++I) {
      StaticPdg Pdg(*P, *Symbols, *Cfgs[I], ModRef);
      SimplifiedStaticGraph Simplified(*P, *Symbols, *Cfgs[I], ModRef,
                                       IsLogged);
    }
  }
  R.PdgMs = msSince(T);
}

} // namespace

std::unique_ptr<CompiledProgram> compileSource(const std::string &Source,
                                               bool Instrument,
                                               std::string &Error) {
  CompileOptions Options;
  Options.Instrument = Instrument;
  DiagnosticEngine Diags;
  auto Prog = Compiler::compile(Source, Options, Diags);
  if (!Prog)
    Error = Diags.str();
  return Prog;
}

EpisodeResult runEpisode(const EpisodeInput &In) {
  const Workload &W = *In.W;
  SpanBuffer *Spans = In.Spans;
  EpisodeResult R;
  auto Fail = [&R](const std::string &Why) {
    ++R.Failed;
    if (R.Correct)
      R.Error = Why;
    R.Correct = false;
    return R;
  };
  if (Spans)
    Spans->Group = In.Id;
  const std::string LogPath = In.Dir + "/episode.log";
  const std::string DbPath = programDbPathFor(LogPath);

  std::unique_ptr<CompiledProgram> Prog;
  ExecutionLog Log;
  RunResult Run;
  std::shared_ptr<const PageStore> Store;
  std::shared_ptr<BufferPool> Pool;
  std::unique_ptr<PpdController> C;
  DynNodeId Root = InvalidId;
  RaceDetectionResult Races;
  {
    SpanScope Episode(Spans, "episode");

    // Preparatory phase. Traced runs split parse from the rest of the
    // pipeline (the same work Compiler::compile(Source) does).
    ++R.Attempted;
    uint64_t T = nowNs();
    if (Spans) {
      DiagnosticEngine Diags;
      std::unique_ptr<Program> Ast;
      {
        SpanScope S(Spans, "lang.parse");
        Ast = Parser::parse(W.Source, Diags);
      }
      R.ParseMs = msSince(T);
      uint64_t T1 = nowNs();
      if (Ast) {
        SpanScope S(Spans, "compiler.compile");
        Prog = Compiler::compile(std::move(Ast), CompileOptions(), Diags);
      }
      R.CompileAstMs = msSince(T1);
    } else {
      std::string Error;
      Prog = compileSource(W.Source, true, Error);
    }
    R.CompileMs = msSince(T);
    if (!Prog)
      return Fail("compile failed");

    // Execution phase with logging.
    ++R.Attempted;
    T = nowNs();
    {
      SpanScope S(Spans, "vm.logged_run");
      Machine M(*Prog, MachineOptions{});
      Run = M.run();
      Log = M.takeLog();
    }
    R.LoggedRunMs = msSince(T);

    // Persist: v2 save, then the `.ppdb` sidecar (which needs the saved
    // file's store and a skimmed index).
    ++R.Attempted;
    T = nowNs();
    bool Saved;
    {
      SpanScope S(Spans, "log.save");
      Saved = Log.save(LogPath, LogFormat::V2);
    }
    R.SaveMs = msSince(T);
    uint64_t T1 = nowNs();
    bool DbWritten = false;
    if (Saved) {
      SpanScope S(Spans, "log.ppdb_write");
      std::string Error;
      auto Written = PageStore::open(LogPath, &Error);
      if (Written) {
        LogIndex Index(*Written);
        DbWritten = writeProgramDb(DbPath, *Prog, *Written, Index);
      }
    }
    R.PpdbWriteMs = msSince(T1);
    R.PersistMs = msSince(T);
    if (!DbWritten)
      return Fail("save or .ppdb write failed");

    // Debugging phase: cold paged open to the first flowback answer.
    ++R.Attempted;
    T = nowNs();
    std::string Error;
    {
      SpanScope S(Spans, "log.store_open");
      Store = PageStore::open(LogPath, &Error);
    }
    R.StoreOpenMs = msSince(T);
    if (!Store)
      return Fail("store open failed: " + Error);
    T1 = nowNs();
    std::shared_ptr<const LogIndex> Index;
    PpdControllerOptions COpts;
    ProgramDbStatus Db;
    {
      SpanScope S(Spans, "log.ppdb_read");
      Db = readProgramDb(DbPath, *Prog, *Store, Index, &COpts.AdoptedGraph);
    }
    R.PpdbReadMs = msSince(T1);
    if (Db != ProgramDbStatus::Ok)
      return Fail(std::string(".ppdb not warm: ") + programDbStatusName(Db));
    {
      SpanScope S(Spans, "core.controller_open");
      Pool = std::make_shared<BufferPool>(size_t(256) << 20);
      C = std::make_unique<PpdController>(*Prog, PagedLog{Store, Pool},
                                          std::move(Index), COpts);
    }
    {
      SpanScope S(Spans, "core.session_start");
      Root = W.ExpectFailure ? C->startAtFailure(0) : C->startAtLastEvent(0);
    }
    if (Root == InvalidId)
      return Fail("session start found no event");
    {
      SpanScope S(Spans, "core.first_flowback");
      C->dependencesOf(Root);
    }
    R.OpenMs = msSince(T);
    R.SectionsFaulted = Pool->stats().Insertions;

    // The seeded flowback walk.
    ++R.Attempted;
    T = nowNs();
    walk(*C, Root, W.Walk, In.WalkSeed, Spans, R);
    R.WalkMs = msSince(T);

    // Races: the session's first detectRaces, closure build included.
    ++R.Attempted;
    T = nowNs();
    {
      SpanScope S(Spans, "pardyn.detect_races");
      Races = C->detectRaces();
    }
    R.RacesMs = msSince(T);
  }
  R.EpisodeMs = R.CompileMs + R.LoggedRunMs + R.PersistMs + R.OpenMs +
                R.WalkMs + R.RacesMs;

  // Checks, outside every timed phase.
  std::string Why = checkRun(W, Run, Log);
  if (!Why.empty())
    return Fail(Why);
  Why = checkRaces(W, *Prog, Races);
  if (!Why.empty())
    return Fail(Why);
  for (const auto &[Pid, Idx] : tracedIntervals(*C)) {
    const ReplayResult *Replay = C->replayOf(Pid, Idx);
    if (Replay && !Replay->Ok)
      return Fail("replay diverged: " + Replay->Error);
  }

  // Counters.
  R.VmSteps = Run.Steps;
  for (const ProcessLog &P : Log.Procs)
    R.Records += P.Records.size();
  R.FileBytes = Store->fileBytes();
  R.SectionsTotal = Store->numProcs();
  BufferPoolStats PS = Pool->stats();
  R.PoolHits = PS.Hits;
  R.PoolLookups = PS.Hits + PS.Misses;
  R.PoolPeakBytes = PS.PeakBytes;
  const ControllerStats &CS = C->stats();
  R.Replays = CS.Replays;
  R.ReplayInstructions = CS.ReplayInstructions;
  R.EventsTraced = CS.EventsTraced;
  ReplayServiceStats RS = C->replayService().stats();
  R.CacheHits = RS.Cache.Hits;
  R.CacheLookups = RS.Cache.Hits + RS.Cache.Misses;
  R.JitCompiles = RS.JitCompiles;
  R.JitBailouts = RS.JitBailouts;
  R.JitCompileNs = RS.JitCompileNs;
  for (const DynEdge &E : C->graph().edges())
    R.CrossReads += E.Kind == DynEdgeKind::CrossData;
  R.Races = Races.Races.size();
  R.PairsExamined = Races.PairsExamined;
  R.ClosureNs = Races.ClosureBuildNs;
  for (const CompiledFunction &F : Prog->Funcs)
    R.CompilerInstrs += F.Object.size() + F.Emu.size();

  if (!Spans)
    return R;

  // Traced-only layer measurements, outside the episode span.
  Spans->Group = In.Id;
  frontEndBreakdown(W.Source, R, Spans);
  // E1's method: uninstrumented Plain runs against logged runs of the
  // same source, alternated, fastest of three each.
  R.PlainRunMs = R.LogOverheadRunMs = 1e300;
  for (int Rep = 0; Rep != 3; ++Rep) {
    uint64_t T = nowNs();
    {
      SpanScope S(Spans, "vm.plain_run");
      MachineOptions Plain;
      Plain.Mode = RunMode::Plain;
      Machine(*In.Plain, Plain).run();
    }
    R.PlainRunMs = std::min(R.PlainRunMs, msSince(T));
    T = nowNs();
    {
      SpanScope S(Spans, "vm.logged_rerun");
      Machine(*Prog, MachineOptions{}).run();
    }
    R.LogOverheadRunMs = std::min(R.LogOverheadRunMs, msSince(T));
  }
  uint64_t T = nowNs();
  {
    SpanScope S(Spans, "pardyn.graph_build");
    ParallelDynamicGraph Graph(Log, Prog->Symbols->NumSharedVars);
    for (uint32_t Pid = 0; Pid != Graph.numProcs(); ++Pid)
      R.ParEdges += Graph.edges(Pid).size();
  }
  R.GraphBuildMs = msSince(T);
  {
    SpanScope S(Spans, "core.replay_tiers");
    LogIndex FullIndex(Log);
    auto Ivs = tracedIntervals(*C);
    bool Ok = true;
    R.JitMinstrS = replayThroughput(*Prog, Log, FullIndex, Ivs,
                                    ReplayEngineKind::Jit, Ok);
    R.DecodedMinstrS = replayThroughput(*Prog, Log, FullIndex, Ivs,
                                        ReplayEngineKind::Decoded, Ok);
    if (!Ok)
      return Fail("replay-tier sweep diverged");
  }
  return R;
}

} // namespace perfbench
