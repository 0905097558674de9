//===- core/DebugSession.cpp ----------------------------------------------===//
//
// Part of PPD. See DebugSession.h.
//
//===----------------------------------------------------------------------===//

#include "core/DebugSession.h"

#include "lang/AstPrinter.h"

#include <sstream>

using namespace ppd;

static std::string lineOf(const CompiledProgram &Prog, StmtId Stmt) {
  if (Stmt == InvalidId)
    return "";
  return " (line " +
         std::to_string(Prog.Ast->stmt(Stmt)->getLoc().Line) + ")";
}

std::string DebugSession::showNode(DynNodeId Id) {
  const DynNode &N = Controller.graph().node(Id);
  std::string Out = "node " + std::to_string(Id) + ": ";
  Out += N.Label;
  if (N.HasValue)
    Out += "  = " + std::to_string(N.Value);
  if (N.Pid != InvalidId)
    Out += "  (p" + std::to_string(N.Pid) + ")";
  Out += lineOf(Prog, N.Stmt);
  Out += "\n";
  for (const DynEdge &E : Controller.dependencesOf(Id)) {
    const char *Kind = nullptr;
    switch (E.Kind) {
    case DynEdgeKind::Data:
      Kind = "data   ";
      break;
    case DynEdgeKind::Control:
      Kind = "control";
      break;
    case DynEdgeKind::CrossData:
      Kind = "cross  ";
      break;
    case DynEdgeKind::Sync:
      Kind = "sync   ";
      break;
    case DynEdgeKind::Flow:
      continue;
    }
    const DynNode &From = Controller.graph().node(E.From);
    Out += "  <- " + std::string(Kind) + " node " +
           std::to_string(E.From) + "  ";
    Out += From.Label;
    if (E.Var != InvalidId)
      Out += "  [" + Prog.Symbols->var(E.Var).Name + "]";
    Out += "\n";
  }
  return Out;
}

std::string DebugSession::cmdWhere(std::istream &Args) {
  uint32_t Pid = 0;
  Args >> Pid;
  if (Pid >= Controller.numProcs())
    return "no such process\n";
  DynNodeId Node = Controller.startAtFailure(Pid);
  if (Node == InvalidId)
    Node = Controller.startAtLastEvent(Pid);
  if (Node == InvalidId)
    return "no events for process " + std::to_string(Pid) + "\n";
  Current = Node;
  return showNode(Node);
}

std::string DebugSession::cmdNode(std::istream &Args) {
  DynNodeId Node = InvalidId;
  Args >> Node;
  if (Node >= Controller.graph().numNodes())
    return "no such node\n";
  Current = Node;
  return showNode(Node);
}

std::string DebugSession::cmdBack() {
  if (Current == InvalidId)
    return "no current node; use 'where' first\n";
  for (const DynEdge &E : Controller.dependencesOf(Current)) {
    if (E.Kind != DynEdgeKind::Data && E.Kind != DynEdgeKind::CrossData)
      continue;
    if (Controller.graph().node(E.From).Kind == DynNodeKind::Entry)
      continue;
    Current = E.From;
    return showNode(Current);
  }
  return "no data dependence to follow\n";
}

std::string DebugSession::cmdFwd() {
  if (Current == InvalidId)
    return "no current node; use 'where' first\n";
  for (const DynEdge &E : Controller.influencesOf(Current)) {
    if (E.Kind != DynEdgeKind::Data && E.Kind != DynEdgeKind::CrossData)
      continue;
    Current = E.To;
    return showNode(Current);
  }
  return "no traced forward flow from here\n";
}

std::string DebugSession::cmdExpand(std::istream &Args) {
  DynNodeId Node = InvalidId;
  Args >> Node;
  DynNodeId Entry = Controller.expandCall(Node);
  if (Entry == InvalidId)
    return "node is not an unexpanded sub-graph node\n";
  return "expanded; callee detail begins at node " + std::to_string(Entry) +
         "\n" + showNode(Entry);
}

std::string DebugSession::cmdRaces() {
  auto Races = Controller.detectRaces();
  RaceDetector Detector(Controller.parallelGraph(), *Prog.Symbols);
  return Detector.summarize(Races, *Prog.Ast);
}

std::string DebugSession::cmdRestore(std::istream &Args) {
  uint32_t Pid = 0, Interval = 0;
  Args >> Pid >> Interval;
  if (Pid >= Controller.numProcs() ||
      Interval >= Controller.logIndex().intervals(Pid).size())
    return "no such interval\n";
  RestoredState State = Controller.restoreGlobals(Pid, Interval);
  std::string Out;
  for (VarId V : Prog.Symbols->Globals) {
    const VarInfo &Info = Prog.Symbols->var(V);
    if (Info.isArray())
      continue;
    int64_t Value = Info.isShared() ? State.Shared[Info.Offset]
                                    : State.PrivateGlobals[Info.Offset];
    Out += "  " + Info.Name + " = " + std::to_string(Value) + "\n";
  }
  return Out.empty() ? "(no scalar globals)\n" : Out;
}

std::string DebugSession::cmdWhatIf(std::istream &Args) {
  uint32_t Pid = 0, Interval = 0, Event = 0;
  std::string VarName;
  int64_t Value = 0;
  const char *Usage = "usage: whatif PID INTERVAL EVENT VAR VALUE\n";
  if (!(Args >> Pid >> Interval >> Event >> VarName >> Value) ||
      !(Args >> std::ws).eof())
    return Usage;
  // VAR is resolved as the interval's root function sees it: its params
  // and locals first, then the globals.
  auto Named = [&](const std::vector<VarId> &Vars) {
    for (VarId V : Vars)
      if (Prog.Symbols->var(V).Name == VarName)
        return V;
    return VarId(InvalidId);
  };
  VarId Var = InvalidId;
  if (Pid < Controller.numProcs() &&
      Interval < Controller.logIndex().intervals(Pid).size()) {
    uint32_t EBlock = Controller.logIndex().intervals(Pid)[Interval].EBlock;
    if (EBlock < Prog.EBlocks.size())
      Var = Named(Prog.Symbols->Frames[Prog.eblock(EBlock).Func].Vars);
    if (Var == InvalidId)
      Var = Named(Prog.Symbols->Globals);
  }
  if (Var == InvalidId)
    return Usage;
  ReplayResult Res =
      Controller.whatIf(Pid, Interval, {{Event, Var, -1, Value}});
  // An override fires as a statement begins at event EVENT; the replay up
  // to there is the logged one. So a trace no longer than EVENT is the
  // unmodified interval, and EVENT lies past its end; and where EVENT is a
  // call event no statement begins there, so the override never fired.
  const std::vector<TraceEvent> &Events = Res.Events.Events;
  if (Event >= Events.size())
    return "no such event: interval " + std::to_string(Interval) +
           " of process " + std::to_string(Pid) + " has " +
           std::to_string(Events.size()) + " events\n";
  if (TraceEventKind Kind = Events[Event].Kind; Kind != TraceEventKind::Stmt)
    return "event " + std::to_string(Event) + " of interval " +
           std::to_string(Interval) + " is a " +
           (Kind == TraceEventKind::CallBegin ? "CallBegin"
            : Kind == TraceEventKind::CallEnd ? "CallEnd"
                                              : "CallSkipped") +
           " event; an override applies where a statement begins\n";
  std::string Out = "what-if run";
  if (Res.Diverged)
    Out += " (control flow diverged from the logged path)";
  Out += " printed:";
  for (const OutputRecord &O : Res.Output)
    Out += " " + std::to_string(O.Value);
  Out += "\n";
  return Out;
}

std::string DebugSession::cmdStats() {
  const ControllerStats &S = Controller.stats();
  ReplayServiceStats RS = Controller.replayService().stats();
  std::string Out =
      "replays " + std::to_string(S.Replays) + ", events traced " +
      std::to_string(S.EventsTraced) + ", trace bytes " +
      std::to_string(S.TraceBytes) + ", graph nodes " +
      std::to_string(Controller.graph().numNodes()) + "\n";
  Out += renderReplayServiceStats(RS);
  return Out;
}

std::string DebugSession::execute(const std::string &Line) {
  // Checked before the command runs and again after it: the command
  // itself may be what finds the log changed or corrupt.
  std::string Out;
  if (Controller.logFailure().empty())
    Out = dispatch(Line);
  std::string Failure = Controller.logFailure();
  return Failure.empty() ? Out : "error: " + Failure + "\n";
}

std::string DebugSession::dispatch(const std::string &Line) {
  std::stringstream Args(Line);
  std::string Cmd;
  Args >> Cmd;
  if (Cmd.empty())
    return "";
  if (Cmd == "help")
    return R"(commands:
  where [pid]        start/refocus at the failure or last event of pid
  node N             show node N with its dependences
  back               follow the first data dependence backwards
  fwd                follow the first traced data flow forwards
  expand N           expand sub-graph node N (replays the nested interval)
  races              detect races on this execution instance (Def 6.4)
  restore PID I      globals restored at interval I of process PID (5.7)
  whatif PID I E VAR VALUE   replay interval I with VAR=VALUE at event E
  list               the program source
  graphdot [N]       dynamic graph as DOT (optionally sliced from node N)
  pardot             parallel dynamic graph as DOT
  stats              controller counters
  quit
)";
  if (Cmd == "where")
    return cmdWhere(Args);
  if (Cmd == "node")
    return cmdNode(Args);
  if (Cmd == "back")
    return cmdBack();
  if (Cmd == "fwd")
    return cmdFwd();
  if (Cmd == "expand")
    return cmdExpand(Args);
  if (Cmd == "races")
    return cmdRaces();
  if (Cmd == "restore")
    return cmdRestore(Args);
  if (Cmd == "whatif")
    return cmdWhatIf(Args);
  if (Cmd == "list") {
    AstPrinter Printer;
    return Printer.print(*Prog.Ast);
  }
  if (Cmd == "graphdot") {
    DynNodeId Root = InvalidId;
    Args >> Root;
    std::vector<DynNodeId> Roots;
    if (Root != InvalidId && Root < Controller.graph().numNodes())
      Roots.push_back(Root);
    return Controller.graph().dot(*Prog.Ast, Roots);
  }
  if (Cmd == "pardot")
    return Controller.parallelGraph().dot(*Prog.Ast);
  if (Cmd == "stats")
    return cmdStats();
  return "unknown command '" + Cmd + "' (try 'help')\n";
}
