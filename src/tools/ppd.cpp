//===- tools/ppd.cpp - The PPD command-line debugger ----------------------===//
//
// Part of PPD, a reproduction of Miller & Choi, "A Mechanism for Efficient
// Debugging of Parallel Programs" (PLDI 1988).
//
// Drives all three phases of the paper from the command line:
//
//   ppd compile <file.ppl> [options]   preparatory phase: static artifacts
//   ppd run     <file.ppl> [options]   execution phase: run + write the log
//   ppd races   <file.ppl> [options]   run, then §6.4 race detection
//   ppd debug   <file.ppl> [options]   debugging phase: interactive
//                                      flowback session (reads commands
//                                      from stdin; pipe-friendly)
//   ppd serve   <file.ppl> [options]   debugging phase as a daemon: serve
//                                      concurrent sessions over a unix
//                                      socket
//   ppd client  --socket PATH          scriptable client for ppd serve
//                                      (commands from stdin)
//   ppd bots    --tcp HOST:PORT        scripted client-fleet load
//                                      generator against a running server
//
//===----------------------------------------------------------------------===//

#include "compiler/Compiler.h"
#include "core/Controller.h"
#include "core/DeadlockAnalyzer.h"
#include "core/DebugSession.h"
#include "lang/AstPrinter.h"
#include "log/BufferPool.h"
#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "server/Bots.h"
#include "server/DebugServer.h"
#include "server/Transport.h"
#include "server/Wire.h"
#include "stream/Ingest.h"
#include "stream/StreamClient.h"
#include "testing/Fuzzer.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <type_traits>

#include <unistd.h>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace ppd;

namespace {

struct CliOptions {
  std::string Command;
  std::string File;
  uint64_t Seed = 1;
  uint32_t Quantum = 8;
  std::vector<std::vector<int64_t>> Inputs;
  std::string LogPath;
  RunMode Mode = RunMode::Logging;
  bool DumpDisassembly = false;
  bool DumpPdg = false;
  bool DumpSimplified = false;
  bool DumpDatabase = false;
  bool LeafInheritance = false;
  bool LoopBlocks = false;
  std::vector<uint32_t> BreakLines;

  // paged log tier (debug/serve)
  size_t PoolBudget = 0; ///< 0 = PPD_POOL_BUDGET env, else 256 MiB.
  bool NoPpdb = false;

  // serve / client / bots
  std::string SocketPath;
  std::string TcpAddr;              ///< --tcp HOST:PORT
  uint64_t IdleTimeoutMs = 0;       ///< --idle-timeout-ms (serve)
  std::vector<std::string> ExtraPrograms; ///< --program (serve)
  std::vector<std::string> LogPaths;      ///< --log occurrences (serve)
  unsigned ServerThreads = 0;
  unsigned QueueLimit = 128;
  uint64_t TimeoutMs = 0;
  unsigned MaxSessions = 64;
  bool MetricsDump = false;

  // bots
  unsigned NumBots = 100;           ///< --bots
  unsigned BotQueries = 10;         ///< --queries
  std::string BotCommand = "where 0"; ///< --bot-command
  uint32_t BotProgram = 0;          ///< --bot-program
  bool BotShared = false;           ///< --shared-session
  bool BotNoHold = false;           ///< --no-hold
  unsigned BotThinkMs = 0;          ///< --think-ms

  // streaming ingest (run --stream / serve)
  std::string StreamAddr;       ///< --stream (run): server socket path.
  uint32_t StreamProgram = 0;   ///< --stream-program (run)
  uint32_t SectionRecords = 64; ///< --section-records (run)
  std::string SpillDir;         ///< --spill-dir (serve)
  size_t SpillBudget = 0;       ///< --spill-budget (serve); 0 = unbounded
  unsigned CreditWindow = 8;    ///< --credit-window (serve)
  bool SpillSync = false;       ///< --spill-sync (serve)

  // fuzz
  uint64_t FuzzRuns = 100;
  bool Minimize = false;
  std::string ReproOut;
};

void usage() {
  std::fprintf(stderr, R"(usage: ppd <command> <file.ppl> [options]

commands:
  compile   preparatory phase: report the static artifacts
  run       execution phase: run the object code, generate the log
  races     run, then detect races on the execution instance
  debug     debugging phase: interactive flowback session
  serve     debugging phase as a daemon: concurrent sessions over a unix
            socket and/or TCP (ppd serve file.ppl --socket PATH
            [--tcp HOST:PORT]); the epoll dispatcher serves both
            listeners from one thread
  client    scriptable client for a running server (ppd client --socket
            PATH | --tcp HOST:PORT; commands from stdin: open/query/step/
            races/stats/close/tail/frontier/shutdown/quit; `tail ID CMD`
            debugs a live stream's frontier, `frontier [ID]` shows ingest
            progress)
  bots      client-fleet load generator (ppd bots --tcp HOST:PORT --bots N
            --queries Q; takes no file argument): N concurrent scripted
            sessions — connect, open, Q serial queries, hold until the
            fleet finishes, close — with client-side p50/p99 per query
  fuzz      differential fuzzing: random PPL programs checked against
            the paper's replay theorem and every redundant pipeline pair
            (ppd fuzz --runs N --seed S; takes no file argument); every
            seed runs, each divergence is listed, and any exits 1

options:
  --seed N              scheduler seed (default 1); one seed = one
                        execution instance
  --quantum N           preemption quantum in instructions (default 8)
  --input v,v,...       input stream for the next process (repeatable:
                        first use feeds pid 0, second pid 1, ...)
  --break LINE          halt the machine when any process reaches a
                        statement on this source line (repeatable)
  --save-log PATH       (run) write the execution log to PATH
  --log PATH            (debug/serve) open the saved log instead of
                        re-running; process sections are paged in on
                        demand
  --mode M              (run) plain | logging | fulltrace
  --leaf-inheritance    partitioner: unlog small call-graph leaves
  --loop-blocks         partitioner: loops become their own e-blocks
  --pool-budget N[kmg]  (debug/serve) buffer-pool byte budget for
                        decoded log sections (default 256m; the
                        PPD_POOL_BUDGET env var overrides the default,
                        the flag overrides both)
  --no-ppdb             (run/debug/serve) neither read nor write the
                        .ppdb program-database sidecar
  --dump-ir             (compile) disassemble both artifacts
  --dump-pdg            (compile) static PDGs as DOT
  --dump-simplified     (compile) simplified static graphs + sync units
  --dump-db             (compile) the program database
  --stream ADDR         (run) live attach: ship completed log sections to
                        the ppd server at this endpoint — a unix socket
                        path or tcp:HOST:PORT — while the program
                        runs (requires --mode logging, the default); the
                        server's `tail`/`frontier` client commands then
                        debug the still-running program
  --stream-program N    (run --stream) program index on the server the
                        stream belongs to (default 0)
  --section-records N   (run --stream) unsealed-record threshold that
                        seals a consistent cut (default 64)
  --spill-dir PATH      (serve) append each ingested cut to a spill file
                        here and finalize a canonical v2 log when the
                        stream ends (default: ingest in memory only)
  --spill-budget N[kmg] (serve) total spill bytes across all ingest
                        sessions; past it new cuts are rejected Busy
                        (default unbounded)
  --credit-window N     (serve) SectionData frames a tracer may have in
                        flight before it must stall (default 8)
  --spill-sync          (serve) fdatasync the spill file after every
                        acked cut: an ack then survives power loss, not
                        just a server crash (finalized logs are always
                        fsynced through their rename)
  --socket PATH         (serve/client/bots) unix socket path
  --tcp HOST:PORT       (serve) also listen on TCP (port 0 = ephemeral;
                        the bound port is printed); (client/bots/run
                        --stream) connect over TCP instead of --socket
  --idle-timeout-ms N   (serve) disconnect clients with no traffic
                        for N ms (default 0 = never)
  --program FILE        (serve) serve another program too (repeatable);
                        the Nth --log pairs with the Nth program, and
                        more --log flags than programs is an error
  --server-threads N    (serve) request worker threads (default 0 =
                        handle requests inline, one at a time)
  --queue-limit N       (serve) max queued+running requests before Busy
                        (default 128)
  --timeout-ms N        (serve) drop requests older than N ms at dequeue
                        (default 0 = never)
  --max-sessions N      (serve) concurrent session cap (default 64)
  --metrics-dump        (serve) print the metrics report on shutdown
  --bots N              (bots) fleet size (default 100)
  --queries N           (bots) serial queries per bot (default 10)
  --bot-command CMD     (bots) the debugger command each query sends
                        (default "where 0")
  --bot-program N       (bots) program index bots open (default 0)
  --shared-session      (bots) every bot queries one shared session
                        instead of opening its own
  --no-hold             (bots) disconnect each bot as it finishes instead
                        of holding until the whole fleet is done
  --think-ms N          (bots) mean pause between a query's answer and the
                        next query (default 0 = back-to-back saturation;
                        nonzero paces the fleet so latency measures the
                        server, not the client's own queue depth)
  --runs N              (fuzz) number of generated programs (default 100)
  --minimize            (fuzz) delta-debug the first divergence down to a
                        minimal repro before reporting it
  --repro-out PATH      (fuzz) write the (minimized) repro source to PATH
                        when a divergence is found
)");
}

/// Upper bound for --server-threads: far past any useful worker count, far
/// short of what would exhaust the process creating it.
constexpr uint64_t MaxThreads = 1024;

/// Parses a decimal value in [0, Max] into \p Out. strtoull on its own
/// reads "abc" as 0, wraps "-1" to 2^64-1 and saturates on overflow, so
/// every numeric flag goes through here: anything but plain digits in
/// range is rejected.
template <typename T> bool parseUnsigned(const char *V, uint64_t Max, T &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*V)))
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(V, &End, 10);
  if (*End != '\0' || errno == ERANGE || N > Max)
    return false;
  Out = T(N);
  return true;
}

/// The signed sibling of parseUnsigned: an optional sign, then digits
/// only, in int64 range.
bool parseSigned(const char *V, int64_t &Out) {
  const char *Digits = *V == '-' || *V == '+' ? V + 1 : V;
  if (!std::isdigit(static_cast<unsigned char>(*Digits)))
    return false;
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(V, &End, 10);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = N;
  return true;
}

/// Parses "N", "Nk", "Nm", "Ng" (binary multiples) into bytes.
bool parseByteSize(const char *V, size_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(V, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(*V)) || errno == ERANGE)
    return false;
  size_t Mult = 1;
  switch (*End) {
  case 'k': case 'K': Mult = size_t(1) << 10; ++End; break;
  case 'm': case 'M': Mult = size_t(1) << 20; ++End; break;
  case 'g': case 'G': Mult = size_t(1) << 30; ++End; break;
  default: break;
  }
  if (*End != '\0' || N > SIZE_MAX / Mult)
    return false;
  Out = size_t(N) * Mult;
  return true;
}

/// Buffer-pool budget resolution: --pool-budget flag, then the
/// PPD_POOL_BUDGET environment variable (how CI squeezes every test under
/// a 1 MiB pool), then 256 MiB.
size_t effectivePoolBudget(const CliOptions &Opts) {
  if (Opts.PoolBudget != 0)
    return Opts.PoolBudget;
  if (const char *Env = std::getenv("PPD_POOL_BUDGET")) {
    size_t Bytes = 0;
    if (parseByteSize(Env, Bytes) && Bytes != 0)
      return Bytes;
  }
  return size_t(256) << 20;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  if (Argc < 2)
    return false;
  Opts.Command = Argv[1];
  // `client` and `bots` talk to a running server and `fuzz` generates
  // its own programs; none of them takes a program file.
  int First = 2;
  if (Opts.Command != "client" && Opts.Command != "fuzz" &&
      Opts.Command != "bots") {
    if (Argc < 3)
      return false;
    Opts.File = Argv[2];
    First = 3;
  }
  for (int I = First; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        return nullptr;
      }
      return Argv[++I];
    };
    // A numeric flag's value: digits only, at most Max and what Out holds.
    auto Number = [&](auto &Out, uint64_t Max = UINT64_MAX) {
      const char *V = Next();
      if (!V)
        return false;
      using T = std::remove_reference_t<decltype(Out)>;
      Max = std::min<uint64_t>(Max, std::numeric_limits<T>::max());
      if (parseUnsigned(V, Max, Out))
        return true;
      std::fprintf(stderr,
                   "error: bad %s '%s' (expected an integer in 0..%llu)\n",
                   Arg.c_str(), V, static_cast<unsigned long long>(Max));
      return false;
    };
    if (Arg == "--seed") {
      if (!Number(Opts.Seed))
        return false;
    } else if (Arg == "--quantum") {
      if (!Number(Opts.Quantum))
        return false;
    } else if (Arg == "--input") {
      const char *V = Next();
      if (!V)
        return false;
      std::vector<int64_t> Stream;
      std::stringstream Ss(V);
      std::string Item;
      while (std::getline(Ss, Item, ',')) {
        if (!parseSigned(Item.c_str(), Stream.emplace_back())) {
          std::fprintf(stderr,
                       "error: bad --input item '%s' (expected a 64-bit "
                       "signed integer)\n",
                       Item.c_str());
          return false;
        }
      }
      Opts.Inputs.push_back(std::move(Stream));
    } else if (Arg == "--save-log" || Arg == "--log") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.LogPath = V;
      if (Arg == "--log")
        Opts.LogPaths.push_back(V);
    } else if (Arg == "--socket") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.SocketPath = V;
    } else if (Arg == "--tcp") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.TcpAddr = V;
      std::string Host;
      uint16_t Port = 0;
      if (!splitHostPort(Opts.TcpAddr, Host, Port)) {
        std::fprintf(stderr, "error: bad --tcp '%s' (want HOST:PORT)\n", V);
        return false;
      }
    } else if (Arg == "--idle-timeout-ms") {
      if (!Number(Opts.IdleTimeoutMs))
        return false;
    } else if (Arg == "--spill-sync") {
      Opts.SpillSync = true;
    } else if (Arg == "--bots") {
      if (!Number(Opts.NumBots))
        return false;
    } else if (Arg == "--queries") {
      if (!Number(Opts.BotQueries))
        return false;
    } else if (Arg == "--bot-command") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.BotCommand = V;
    } else if (Arg == "--bot-program") {
      if (!Number(Opts.BotProgram))
        return false;
    } else if (Arg == "--shared-session") {
      Opts.BotShared = true;
    } else if (Arg == "--no-hold") {
      Opts.BotNoHold = true;
    } else if (Arg == "--think-ms") {
      if (!Number(Opts.BotThinkMs))
        return false;
    } else if (Arg == "--program") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.ExtraPrograms.push_back(V);
    } else if (Arg == "--server-threads") {
      if (!Number(Opts.ServerThreads, MaxThreads))
        return false;
    } else if (Arg == "--queue-limit") {
      if (!Number(Opts.QueueLimit))
        return false;
    } else if (Arg == "--timeout-ms") {
      if (!Number(Opts.TimeoutMs))
        return false;
    } else if (Arg == "--max-sessions") {
      if (!Number(Opts.MaxSessions))
        return false;
    } else if (Arg == "--metrics-dump") {
      Opts.MetricsDump = true;
    } else if (Arg == "--stream") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.StreamAddr = V;
    } else if (Arg == "--stream-program") {
      if (!Number(Opts.StreamProgram))
        return false;
    } else if (Arg == "--section-records") {
      if (!Number(Opts.SectionRecords))
        return false;
      if (Opts.SectionRecords == 0) {
        std::fprintf(stderr, "error: --section-records must be positive\n");
        return false;
      }
    } else if (Arg == "--spill-dir") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.SpillDir = V;
    } else if (Arg == "--spill-budget") {
      const char *V = Next();
      if (!V)
        return false;
      if (!parseByteSize(V, Opts.SpillBudget) || Opts.SpillBudget == 0) {
        std::fprintf(stderr, "error: bad --spill-budget '%s' (expected "
                             "N, Nk, Nm, or Ng)\n",
                     V);
        return false;
      }
    } else if (Arg == "--credit-window") {
      if (!Number(Opts.CreditWindow))
        return false;
      if (Opts.CreditWindow == 0) {
        std::fprintf(stderr, "error: --credit-window must be positive\n");
        return false;
      }
    } else if (Arg == "--pool-budget") {
      const char *V = Next();
      if (!V)
        return false;
      if (!parseByteSize(V, Opts.PoolBudget) || Opts.PoolBudget == 0) {
        std::fprintf(stderr, "error: bad --pool-budget '%s' (expected "
                             "N, Nk, Nm, or Ng)\n",
                     V);
        return false;
      }
    } else if (Arg == "--no-ppdb") {
      Opts.NoPpdb = true;
    } else if (Arg == "--mode") {
      const char *V = Next();
      if (!V)
        return false;
      std::string Mode = V;
      if (Mode == "plain") {
        Opts.Mode = RunMode::Plain;
      } else if (Mode == "logging") {
        Opts.Mode = RunMode::Logging;
      } else if (Mode == "fulltrace") {
        Opts.Mode = RunMode::FullTrace;
      } else {
        std::fprintf(stderr, "error: unknown mode '%s' (expected plain, "
                             "logging, or fulltrace)\n",
                     V);
        return false;
      }
    } else if (Arg == "--dump-ir") {
      Opts.DumpDisassembly = true;
    } else if (Arg == "--dump-pdg") {
      Opts.DumpPdg = true;
    } else if (Arg == "--dump-simplified") {
      Opts.DumpSimplified = true;
    } else if (Arg == "--dump-db") {
      Opts.DumpDatabase = true;
    } else if (Arg == "--break") {
      uint32_t Line = 0;
      if (!Number(Line))
        return false;
      Opts.BreakLines.push_back(Line);
    } else if (Arg == "--leaf-inheritance") {
      Opts.LeafInheritance = true;
    } else if (Arg == "--loop-blocks") {
      Opts.LoopBlocks = true;
    } else if (Arg == "--runs") {
      if (!Number(Opts.FuzzRuns))
        return false;
    } else if (Arg == "--minimize") {
      Opts.Minimize = true;
    } else if (Arg == "--repro-out") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.ReproOut = V;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", Arg.c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<CompiledProgram> compileFile(const CliOptions &Opts) {
  std::ifstream In(Opts.File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Opts.File.c_str());
    return nullptr;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  CompileOptions COpts;
  COpts.EBlocks.LeafInheritance = Opts.LeafInheritance;
  COpts.EBlocks.LoopBlocks = Opts.LoopBlocks;
  DiagnosticEngine Diags;
  auto Prog = Compiler::compile(Buffer.str(), COpts, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return nullptr;
  }
  for (const Diagnostic &D : Diags.diagnostics())
    std::fprintf(stderr, "%s\n", D.str().c_str());
  return Prog;
}

int cmdCompile(const CliOptions &Opts) {
  auto Prog = compileFile(Opts);
  if (!Prog)
    return 1;
  std::printf("%s: %zu function(s), %zu e-block(s), %zu sync unit(s), "
              "%u variable(s), %u shared\n",
              Opts.File.c_str(), Prog->Funcs.size(), Prog->EBlocks.size(),
              Prog->Units.size(), Prog->Symbols->numVars(),
              Prog->Symbols->NumSharedVars);
  for (const EBlockInfo &E : Prog->EBlocks) {
    std::printf("  e-block %u in %s (%s): USED={", E.Id,
                Prog->func(E.Func).Name.c_str(),
                E.Kind == EBlockKind::Loop ? "loop" : "segment");
    for (size_t I = 0; I != E.Used.size(); ++I)
      std::printf("%s%s", I ? "," : "",
                  Prog->Symbols->var(E.Used[I]).Name.c_str());
    std::printf("} DEFINED={");
    for (size_t I = 0; I != E.Defined.size(); ++I)
      std::printf("%s%s", I ? "," : "",
                  Prog->Symbols->var(E.Defined[I]).Name.c_str());
    std::printf("}\n");
  }
  if (Opts.DumpDisassembly)
    for (const CompiledFunction &F : Prog->Funcs) {
      std::printf("\n%s",
                  F.Object.disassemble(F.Name + " [object]").c_str());
      std::printf("\n%s", F.Emu.disassemble(F.Name + " [emu]").c_str());
    }
  if (Opts.DumpPdg)
    for (const auto &F : Prog->Ast->Funcs)
      std::printf("\n%s", Prog->Pdgs[F->Index]->dot(*Prog->Ast).c_str());
  if (Opts.DumpSimplified)
    for (const auto &F : Prog->Ast->Funcs)
      std::printf("\n%s",
                  Prog->Simplified[F->Index]->dot(*Prog->Ast).c_str());
  if (Opts.DumpDatabase)
    std::printf("\n%s", Prog->Database->dump(*Prog->Ast).c_str());
  return 0;
}

MachineOptions machineOptions(const CliOptions &Opts,
                              const CompiledProgram &Prog) {
  MachineOptions MOpts;
  MOpts.Seed = Opts.Seed;
  MOpts.Quantum = Opts.Quantum;
  MOpts.ProcessInputs = Opts.Inputs;
  MOpts.Mode = Opts.Mode;
  for (uint32_t Line : Opts.BreakLines) {
    bool Found = false;
    for (StmtId Id = 0; Id != Prog.Ast->numStmts(); ++Id)
      if (Prog.Ast->stmt(Id)->getLoc().Line == Line &&
          !isa<BlockStmt>(Prog.Ast->stmt(Id))) {
        MOpts.Breakpoints.push_back(Id);
        Found = true;
      }
    if (!Found)
      std::fprintf(stderr, "warning: no statement on line %u\n", Line);
  }
  return MOpts;
}

void reportRun(const CompiledProgram &Prog, const Machine &M,
               const RunResult &Result) {
  for (const OutputRecord &O : M.output())
    std::printf("[p%u] %lld\n", O.Pid, (long long)O.Value);
  switch (Result.Outcome) {
  case RunResult::Status::Completed:
    std::printf("-- completed: %llu steps, %zu process(es), log %zu "
                "bytes\n",
                (unsigned long long)Result.Steps, M.processes().size(),
                M.log().byteSize());
    break;
  case RunResult::Status::Failed:
    std::printf("-- FAILED: %s\n", Result.Error.str().c_str());
    if (Result.Error.Stmt != InvalidId)
      std::printf("   at: %s (line %u)\n",
                  AstPrinter::summarize(*Prog.Ast->stmt(Result.Error.Stmt))
                      .c_str(),
                  Prog.Ast->stmt(Result.Error.Stmt)->getLoc().Line);
    break;
  case RunResult::Status::Deadlock: {
    std::printf("-- DEADLOCK after %llu steps\n",
                (unsigned long long)Result.Steps);
    DeadlockAnalyzer Analyzer(Prog, M.log());
    std::printf("%s",
                Analyzer.analyze(Result.Deadlock).str(*Prog.Ast).c_str());
    break;
  }
  case RunResult::Status::StepLimit:
    std::printf("-- step limit reached\n");
    break;
  case RunResult::Status::Breakpoint:
    std::printf("-- BREAKPOINT: process %u at %s (line %u)\n",
                Result.BreakPid,
                AstPrinter::summarize(*Prog.Ast->stmt(Result.BreakStmt))
                    .c_str(),
                Prog.Ast->stmt(Result.BreakStmt)->getLoc().Line);
    break;
  }
}

/// Opens \p LogPath as a paged store and resolves its `.ppdb` sidecar:
/// a valid sidecar hands back its persisted index and parallel dynamic
/// graph, anything else skims a fresh index from the store and
/// (re)writes the sidecar (leaving \p Graph null — the controller
/// rebuilds it lazily if a query needs it). Returns null on open
/// failure — including a section the index skim cannot read — with the
/// reason in \p Error.
std::shared_ptr<const PageStore>
openPagedStore(const CliOptions &Opts, const CompiledProgram &Prog,
               const std::string &LogPath,
               std::shared_ptr<const LogIndex> &Index,
               std::shared_ptr<const ParallelDynamicGraph> &Graph,
               std::string &Error) {
  auto Store = PageStore::open(LogPath, &Error);
  if (!Store)
    return nullptr;
  if (Opts.NoPpdb)
    return Store;
  std::string DbPath = programDbPathFor(LogPath);
  ProgramDbStatus Status = readProgramDb(DbPath, Prog, *Store, Index, &Graph);
  if (Status == ProgramDbStatus::Ok) {
    std::printf("program database: %s (warm)\n", DbPath.c_str());
    return Store;
  }
  Index = std::make_shared<const LogIndex>(*Store);
  if (Store->failed()) {
    Error = Store->failure();
    return nullptr;
  }
  if (writeProgramDb(DbPath, Prog, *Store, *Index))
    std::printf("program database: %s rebuilt (was %s)\n", DbPath.c_str(),
                programDbStatusName(Status));
  else
    std::fprintf(stderr, "warning: cannot write %s\n", DbPath.c_str());
  return Store;
}

int cmdRun(const CliOptions &Opts) {
  auto Prog = compileFile(Opts);
  if (!Prog)
    return 1;
  MachineOptions MOpts = machineOptions(Opts, *Prog);
  if (!Opts.StreamAddr.empty() && MOpts.Mode != RunMode::Logging) {
    std::fprintf(stderr,
                 "error: --stream needs --mode logging (sections are "
                 "sealed from the incremental log)\n");
    return 64;
  }
  Machine M(*Prog, MOpts);

  // Live attach: seal consistent cuts from the growing log at scheduler
  // rounds and ship them; the server debugs the frontier while we run.
  std::unique_ptr<stream::StreamClient> Stream;
  if (!Opts.StreamAddr.empty()) {
    stream::StreamClientOptions SCOpts;
    SCOpts.SocketPath = Opts.StreamAddr;
    SCOpts.Sealer.ProgramIndex = Opts.StreamProgram;
    SCOpts.Sealer.ProgramHash = programHash(*Prog);
    SCOpts.Sealer.SectionRecords = Opts.SectionRecords;
    Stream = std::make_unique<stream::StreamClient>(SCOpts);
    if (!Stream->start()) {
      std::fprintf(stderr, "error: cannot attach stream: %s\n",
                   Stream->error().c_str());
      return 1;
    }
    M.onRound(
        [&Stream](Machine &Mach) { Stream->pollRound(Mach.log()); });
  }

  RunResult Result = M.run();
  reportRun(*Prog, M, Result);

  if (Stream) {
    if (Stream->finish(M.log()))
      std::printf("-- streamed %llu section(s) in %llu cut(s) to %s "
                  "(stream %llu, %llu stall(s))\n",
                  (unsigned long long)Stream->sectionsShipped(),
                  (unsigned long long)Stream->cutsSealed(),
                  Opts.StreamAddr.c_str(),
                  (unsigned long long)Stream->streamId(),
                  (unsigned long long)Stream->stalls());
    else
      std::fprintf(stderr, "warning: stream did not complete: %s\n",
                   Stream->error().c_str());
  }
  if (!Opts.LogPath.empty()) {
    if (!M.log().save(Opts.LogPath, LogFormat::V2)) {
      std::fprintf(stderr, "error: cannot write log to %s\n",
                   Opts.LogPath.c_str());
      return 1;
    }
    std::printf("-- log written to %s\n", Opts.LogPath.c_str());
    // Drop the `.ppdb` sidecar next to the log so the first debug open
    // is already warm (skims here, where the run just paid far more).
    if (!Opts.NoPpdb) {
      std::string Error;
      auto Store = PageStore::open(Opts.LogPath, &Error);
      if (Store) {
        LogIndex Index(*Store);
        std::string DbPath = programDbPathFor(Opts.LogPath);
        if (writeProgramDb(DbPath, *Prog, *Store, Index))
          std::printf("-- program database written to %s\n", DbPath.c_str());
        else
          std::fprintf(stderr, "warning: cannot write %s\n", DbPath.c_str());
      } else {
        std::fprintf(stderr, "warning: cannot reopen %s for the program "
                             "database: %s\n",
                     Opts.LogPath.c_str(), Error.c_str());
      }
    }
  }
  return Result.Outcome == RunResult::Status::Completed ? 0 : 2;
}

int cmdRaces(const CliOptions &Opts) {
  auto Prog = compileFile(Opts);
  if (!Prog)
    return 1;
  Machine M(*Prog, machineOptions(Opts, *Prog));
  RunResult Result = M.run();
  reportRun(*Prog, M, Result);

  PpdController Controller(*Prog, M.takeLog());
  auto Races = Controller.detectRaces();
  if (Races.raceFree()) {
    std::printf("-- execution instance is race-free (Def 6.4); %llu edge "
                "pair(s) examined\n",
                (unsigned long long)Races.PairsExamined);
    return 0;
  }
  RaceDetector Detector(Controller.parallelGraph(), *Prog->Symbols);
  std::printf("-- %zu race(s) found (%llu pair(s) examined):\n",
              Races.Races.size(),
              (unsigned long long)Races.PairsExamined);
  for (const Race &R : Races.Races)
    std::printf("   %s\n", Detector.describe(R, *Prog->Ast).c_str());
  return 3;
}

//===----------------------------------------------------------------------===//
// The interactive debugging phase
//===----------------------------------------------------------------------===//

int cmdDebug(const CliOptions &Opts) {
  auto Prog = compileFile(Opts);
  if (!Prog)
    return 1;

  // A --log file opens as a file store (adopting or rebuilding the .ppdb
  // sidecar); otherwise the program runs here and its log becomes an
  // in-memory store. Either way queries fault sections in through the
  // pool, and a log that is unreadable at open is an error.
  std::shared_ptr<const PageStore> Store;
  std::shared_ptr<const LogIndex> Index;
  PpdControllerOptions COpts;
  size_t Budget = effectivePoolBudget(Opts);
  if (!Opts.LogPath.empty()) {
    std::string Error;
    Store = openPagedStore(Opts, *Prog, Opts.LogPath, Index,
                           COpts.AdoptedGraph, Error);
    if (!Store) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("paged log: %u process(es), %zu bytes on disk, pool "
                "budget %zu bytes\n",
                Store->numProcs(), Store->fileBytes(), Budget);
  } else {
    Machine M(*Prog, machineOptions(Opts, *Prog));
    RunResult Result = M.run();
    reportRun(*Prog, M, Result);
    Store = PageStore::fromLog(M.takeLog());
  }
  PpdController Controller(
      *Prog, PagedLog{std::move(Store), std::make_shared<BufferPool>(Budget)},
      std::move(Index), COpts);
  if (std::string Failure = Controller.logFailure(); !Failure.empty()) {
    std::fprintf(stderr, "error: %s\n", Failure.c_str());
    return 1;
  }
  DebugSession Session(*Prog, Controller);
  std::printf("PPD debugging phase. Type 'help' for commands.\n");
  std::string Line;
  while (std::printf("(ppd) "), std::fflush(stdout),
         std::getline(std::cin, Line)) {
    if (Line == "quit" || Line == "q")
      break;
    std::fputs(Session.execute(Line).c_str(), stdout);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// The debug server and its scriptable client
//===----------------------------------------------------------------------===//

int cmdServe(const CliOptions &Opts) {
  if (Opts.SocketPath.empty() && Opts.TcpAddr.empty()) {
    std::fprintf(stderr,
                 "error: serve needs --socket PATH and/or --tcp "
                 "HOST:PORT\n");
    return 64;
  }
  if (Opts.LogPaths.size() > 1 + Opts.ExtraPrograms.size()) {
    std::fprintf(stderr, "error: %zu --log flag(s) for %zu program(s)\n",
                 Opts.LogPaths.size(), 1 + Opts.ExtraPrograms.size());
    return 64;
  }
  DebugServerOptions SOpts;
  SOpts.Threads = Opts.ServerThreads;
  SOpts.QueueLimit = Opts.QueueLimit;
  SOpts.TimeoutMs = Opts.TimeoutMs;
  SOpts.Registry.MaxSessions = Opts.MaxSessions;
  SOpts.Registry.PoolBudget = effectivePoolBudget(Opts);
  DebugServer Server(SOpts);

  std::vector<std::string> Files;
  Files.push_back(Opts.File);
  Files.insert(Files.end(), Opts.ExtraPrograms.begin(),
               Opts.ExtraPrograms.end());
  for (size_t I = 0; I != Files.size(); ++I) {
    CliOptions FileOpts = Opts;
    FileOpts.File = Files[I];
    auto Prog = compileFile(FileOpts);
    if (!Prog)
      return 1;
    // A --log file is served from its file store; a program without one
    // runs here and its log is served from an in-memory store. Either way
    // every session faults sections through the registry's shared pool.
    bool FromFile = I < Opts.LogPaths.size();
    std::shared_ptr<const PageStore> Store;
    std::shared_ptr<const LogIndex> PagedIndex;
    std::shared_ptr<const ParallelDynamicGraph> PagedGraph;
    if (FromFile) {
      std::string Error;
      Store = openPagedStore(Opts, *Prog, Opts.LogPaths[I], PagedIndex,
                             PagedGraph, Error);
      if (!Store) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
    } else {
      Machine M(*Prog, machineOptions(FileOpts, *Prog));
      M.run();
      Store = PageStore::fromLog(M.takeLog());
    }
    uint32_t Index = Server.addProgram(
        std::move(Prog), PagedLog{std::move(Store), nullptr},
        std::move(PagedIndex), std::move(PagedGraph));
    std::printf("program %u: %s%s\n", Index, Files[I].c_str(),
                FromFile ? " (saved log)" : "");
  }

  // Streaming ingest is always armed: `ppd run --stream` opens a stream
  // against any served program; --spill-dir adds durability, and
  // --spill-budget bounds the total it may accumulate.
  stream::IngestOptions IOpts;
  if (!Opts.SpillDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Opts.SpillDir, Ec);
    if (Ec) {
      std::fprintf(stderr, "error: cannot create spill directory %s: %s\n",
                   Opts.SpillDir.c_str(), Ec.message().c_str());
      return 1;
    }
  }
  IOpts.SpillDir = Opts.SpillDir;
  IOpts.CreditWindow = Opts.CreditWindow;
  IOpts.SpillBudget = Opts.SpillBudget;
  IOpts.SpillSync = Opts.SpillSync;
  stream::IngestRegistry Ingest(Server, IOpts);
  Server.setStreamDispatcher(
      [&Ingest](const Request &Req) { return Ingest.dispatch(Req); });

  raiseFdLimit();
  EpollServerOptions EOpts;
  if (!Opts.SocketPath.empty()) {
    EOpts.UnixListenFd = listenUnix(Opts.SocketPath);
    if (EOpts.UnixListenFd < 0)
      return 1;
    EOpts.UnixPath = Opts.SocketPath;
    std::printf("ppd server listening on %s\n", Opts.SocketPath.c_str());
  }
  if (!Opts.TcpAddr.empty()) {
    uint16_t BoundPort = 0;
    EOpts.TcpListenFd = listenTcp(Opts.TcpAddr, &BoundPort);
    if (EOpts.TcpListenFd < 0) {
      if (EOpts.UnixListenFd >= 0) {
        ::close(EOpts.UnixListenFd);
        ::unlink(Opts.SocketPath.c_str());
      }
      return 1;
    }
    std::string Host;
    uint16_t Port = 0;
    splitHostPort(Opts.TcpAddr, Host, Port);
    // E2e drivers and scripts parse this line for the ephemeral port.
    std::printf("ppd server listening on tcp %s port %u\n",
                Host.empty() ? "0.0.0.0" : Host.c_str(), unsigned(BoundPort));
  }
  std::fflush(stdout);
  EOpts.IdleTimeoutMs = Opts.IdleTimeoutMs;
  int Rc = runEpollServer(Server, EOpts);
  if (Opts.MetricsDump)
    std::printf("%s", Server.metricsReport().c_str());
  return Rc;
}

/// Endpoint resolution shared by client and bots: --tcp wins, --socket
/// otherwise. Empty string when neither was given.
std::string clientAddress(const CliOptions &Opts) {
  if (!Opts.TcpAddr.empty())
    return "tcp:" + Opts.TcpAddr;
  return Opts.SocketPath;
}

int cmdBots(const CliOptions &Opts) {
  std::string Address = clientAddress(Opts);
  if (Address.empty()) {
    std::fprintf(stderr,
                 "error: bots needs --socket PATH or --tcp HOST:PORT\n");
    return 64;
  }
  BotFleetOptions BOpts;
  BOpts.Address = Address;
  BOpts.NumBots = Opts.NumBots;
  BOpts.QueriesPerBot = Opts.BotQueries;
  BOpts.Command = Opts.BotCommand;
  BOpts.ProgramIndex = Opts.BotProgram;
  BOpts.SharedSession = Opts.BotShared;
  BOpts.HoldOpen = !Opts.BotNoHold;
  BOpts.ThinkMs = Opts.BotThinkMs;
  BOpts.Progress = [](const std::string &Line) {
    std::fprintf(stderr, "%s\n", Line.c_str());
  };
  BotFleetResult R = runBotFleet(BOpts);
  std::printf("bots: %u requested, %llu connected, %llu completed, %llu "
              "failed%s\n",
              Opts.NumBots, (unsigned long long)R.Connected,
              (unsigned long long)R.Completed,
              (unsigned long long)R.Failed,
              R.TimedOut ? " (deadline hit)" : "");
  std::printf("peak concurrent connections: %llu\n",
              (unsigned long long)R.PeakConcurrent);
  std::printf("queries: %llu answered in %llu ms, latency mean %lluus, "
              "p50 <%lluus, p99 <%lluus\n",
              (unsigned long long)R.QueriesAnswered,
              (unsigned long long)R.WallMs, (unsigned long long)R.MeanUs,
              (unsigned long long)R.P50us, (unsigned long long)R.P99us);
  if (R.BusyRetries != 0)
    std::printf("busy retries: %llu\n", (unsigned long long)R.BusyRetries);
  if (!R.Error.empty())
    std::fprintf(stderr, "first failure: %s\n", R.Error.c_str());
  return R.ok() ? 0 : 1;
}

/// One client command line → one request, or no request (errors, quit).
/// Returns false to end the script loop.
bool clientCommand(const std::string &Line, Request &Req, bool &Send) {
  Send = false;
  std::stringstream Args(Line);
  std::string Cmd;
  if (!(Args >> Cmd) || Cmd.empty())
    return true;
  if (Cmd == "quit" || Cmd == "q")
    return false;

  // Session and stream ids take the whole token, digits only: `close 1z`
  // is an error, not session 1. A missing id leaves 0 (the commands that
  // need one say so below); a malformed one is reported and sends nothing.
  auto ParseId = [&](const char *What, uint64_t &Id) {
    std::string Token;
    if (!(Args >> Token) || parseUnsigned(Token.c_str(), UINT64_MAX, Id))
      return true;
    std::fprintf(stderr, "client: bad %s id '%s'\n", What, Token.c_str());
    return false;
  };

  if (Cmd == "open") {
    Req.Type = MsgType::OpenSession;
    // A bare `open` opens program 0.
    std::string Index;
    if ((Args >> Index) &&
        !parseUnsigned(Index.c_str(), UINT32_MAX, Req.ProgramIndex)) {
      std::fprintf(stderr, "client: bad program index '%s'\n",
                   Index.c_str());
      return true;
    }
    Send = true;
  } else if (Cmd == "query") {
    Req.Type = MsgType::Query;
    if (!ParseId("session", Req.SessionId))
      return true;
    std::string Rest;
    std::getline(Args, Rest);
    size_t Start = Rest.find_first_not_of(' ');
    Req.Command = Start == std::string::npos ? "" : Rest.substr(Start);
    Send = Req.SessionId != 0;
  } else if (Cmd == "step") {
    Req.Type = MsgType::Step;
    if (!ParseId("session", Req.SessionId))
      return true;
    std::string Dir;
    Args >> Dir;
    if (Req.SessionId != 0 && Dir != "back" && Dir != "fwd") {
      std::fprintf(stderr, "client: bad step direction '%s'\n", Dir.c_str());
      return true;
    }
    Req.Direction = Dir == "fwd" ? 1 : 0;
    Send = Req.SessionId != 0;
  } else if (Cmd == "races") {
    Req.Type = MsgType::Races;
    if (!ParseId("session", Req.SessionId))
      return true;
    Send = Req.SessionId != 0;
  } else if (Cmd == "stats") {
    Req.Type = MsgType::Stats;
    if (!ParseId("session", Req.SessionId))
      return true;
    Send = true;
  } else if (Cmd == "close") {
    Req.Type = MsgType::CloseSession;
    if (!ParseId("session", Req.SessionId))
      return true;
    Send = Req.SessionId != 0;
  } else if (Cmd == "tail") {
    // tail STREAM CMD... — run a debug command against the stream's
    // current frontier (the prefix of the run ingested so far).
    Req.Type = MsgType::TailQuery;
    if (!ParseId("stream", Req.StreamId))
      return true;
    std::string Rest;
    std::getline(Args, Rest);
    size_t Start = Rest.find_first_not_of(' ');
    Req.Command = Start == std::string::npos ? "" : Rest.substr(Start);
    Send = Req.StreamId != 0;
  } else if (Cmd == "frontier") {
    // frontier [STREAM] — ingest progress of one stream, or all of them.
    Req.Type = MsgType::Frontier;
    if (!ParseId("stream", Req.StreamId))
      return true;
    Send = true;
  } else if (Cmd == "shutdown") {
    Req.Type = MsgType::Shutdown;
    Send = true;
  } else {
    std::fprintf(stderr, "client: unknown command '%s'\n", Cmd.c_str());
    return true;
  }
  if (!Send)
    std::fprintf(stderr, "client: '%s' needs a session id\n", Cmd.c_str());
  return true;
}

void printResponse(const Response &Resp) {
  switch (Resp.Type) {
  case RespType::SessionOpened:
    std::printf("session %llu\n", (unsigned long long)Resp.SessionId);
    break;
  case RespType::Result:
  case RespType::StatsText:
    std::fputs(Resp.Text.c_str(), stdout);
    break;
  case RespType::Closed:
    std::printf("closed\n");
    break;
  case RespType::Busy:
    std::printf("BUSY\n");
    break;
  case RespType::Error:
    std::printf("ERROR %u: %s\n", unsigned(Resp.Code), Resp.Text.c_str());
    break;
  case RespType::ShutdownAck:
    std::printf("shutdown requested\n");
    break;
  case RespType::Ack:
    std::printf("ack stream %llu, credits %u\n",
                (unsigned long long)Resp.StreamId, Resp.Credits);
    break;
  }
}

int cmdClient(const CliOptions &Opts) {
  std::string Address = clientAddress(Opts);
  if (Address.empty()) {
    std::fprintf(stderr,
                 "error: client needs --socket PATH or --tcp HOST:PORT\n");
    return 64;
  }
  ClientConnection Conn;
  if (!Conn.connect(Address)) {
    std::fprintf(stderr, "error: cannot connect to %s\n", Address.c_str());
    return 1;
  }
  std::string Line;
  while (std::getline(std::cin, Line)) {
    Request Req;
    bool Send = false;
    if (!clientCommand(Line, Req, Send))
      break;
    if (!Send)
      continue;
    Response Resp;
    if (!Conn.roundTrip(std::move(Req), Resp)) {
      std::fprintf(stderr, "error: connection lost\n");
      return 1;
    }
    printResponse(Resp);
    std::fflush(stdout);
  }
  return 0;
}

int cmdFuzz(const CliOptions &Opts) {
  testing::FuzzOptions FOpts;
  FOpts.Runs = Opts.FuzzRuns;
  FOpts.FirstSeed = Opts.Seed;
  FOpts.Minimize = Opts.Minimize;
  FOpts.Log = [](const std::string &Line) {
    std::fprintf(stderr, "%s\n", Line.c_str());
  };

  testing::FuzzResult Result = testing::runFuzz(FOpts);
  std::printf("%s", testing::summarizeFuzz(Result).c_str());

  if (Result.Failed && !Opts.ReproOut.empty()) {
    std::ofstream Out(Opts.ReproOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.ReproOut.c_str());
      return 1;
    }
    Out << "// ppd fuzz repro: seed " << Result.FailingSeed << ", oracle "
        << Result.Report.Oracle << "\n"
        << Result.ReproSource;
    std::fprintf(stderr, "repro written to %s\n", Opts.ReproOut.c_str());
  }
  return Result.Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage();
    return 64;
  }
  if (Opts.Command == "compile")
    return cmdCompile(Opts);
  if (Opts.Command == "run")
    return cmdRun(Opts);
  if (Opts.Command == "races")
    return cmdRaces(Opts);
  if (Opts.Command == "debug")
    return cmdDebug(Opts);
  if (Opts.Command == "serve")
    return cmdServe(Opts);
  if (Opts.Command == "client")
    return cmdClient(Opts);
  if (Opts.Command == "bots")
    return cmdBots(Opts);
  if (Opts.Command == "fuzz")
    return cmdFuzz(Opts);
  // One error path for every unrecognized command: name it, show usage,
  // and exit with a code distinct from argument-parse failures (64).
  std::fprintf(stderr, "error: unknown command '%s'\n",
               Opts.Command.c_str());
  usage();
  return 65;
}
