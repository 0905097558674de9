//===- bench/bench_transport.cpp - Experiment E13 -------------------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// E13 measures the epoll transport under connection scale — the axis the
// in-process E10 cannot see (E10 deliberately excludes kernel buffers
// and sockets):
//
//   * `transport_warm_p99/N`   — N concurrent TCP bot connections, each
//     holding a warmed session and issuing queries; P50us/P99us are the
//     client-observed round-trip percentiles from the fleet's histogram.
//     The tentpole acceptance bar reads from this curve: warm p99 at
//     high N vs the single-connection baseline.
//   * `transport_fd_churn/N`   — N connect/round-trip/disconnect cycles
//     against the epoll server; FdDelta is the process fd-count change
//     across the run (flat = no leak).
//
// All servers run in-process with inline request execution (ServerThreads
// = 0): the transport is the variable, the scheduler is not.
//
//===----------------------------------------------------------------------===//

#include "BenchPrograms.h"

#include "server/Bots.h"
#include "server/DebugServer.h"
#include "server/Transport.h"
#include "server/Wire.h"
#include "vm/Machine.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <dirent.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace ppd;
using namespace ppd::bench;

namespace {

size_t openFdCount() {
  DIR *D = ::opendir("/proc/self/fd");
  if (!D)
    return 0;
  size_t N = 0;
  while (struct dirent *E = ::readdir(D)) {
    if (E->d_name[0] == '.')
      continue;
    ++N;
  }
  ::closedir(D);
  return N - 1;
}

std::string transportWorkload() { return mixedWorkload(6, 40); }

/// An in-process epoll server on an ephemeral TCP port, loop on a
/// background thread, sessions uncapped (the fleet opens one per bot).
struct BenchEpollServer {
  std::unique_ptr<DebugServer> Server;
  uint16_t Port = 0;
  std::string UnixPath;
  std::thread Loop;

  void start(bool WithUnix = false) {
    DebugServerOptions SOpts;
    SOpts.Registry.MaxSessions = 1u << 20;
    SOpts.QueueLimit = 4096;
    Server = std::make_unique<DebugServer>(SOpts);
    auto Prog = mustCompile(transportWorkload());
    MachineOptions MOpts;
    MOpts.Seed = 11;
    Machine M(*Prog, MOpts);
    M.run();
    Server->addProgram(std::move(Prog), M.takeLog());

    EpollServerOptions TOpts;
    TOpts.TcpListenFd = listenTcp("127.0.0.1:0", &Port);
    if (TOpts.TcpListenFd < 0)
      std::abort();
    if (WithUnix) {
      UnixPath = "/tmp/ppd-bench-transport-" + std::to_string(::getpid()) +
                 ".sock";
      TOpts.UnixListenFd = listenUnix(UnixPath);
      TOpts.UnixPath = UnixPath;
    }
    DebugServer *S = Server.get();
    Loop = std::thread([S, TOpts] { runEpollServer(*S, TOpts); });
    // Wait until the loop thread is serving: the dispatcher's own fds
    // (epoll + eventfd) are created on that thread, and the churn
    // benchmark counts open fds right after start() returns.
    for (int W = 0; W != 1000; ++W) {
      ClientConnection Conn;
      if (Conn.connect(endpoint())) {
        Request Stats;
        Stats.Type = MsgType::Stats;
        Response Resp;
        if (Conn.roundTrip(Stats, Resp))
          break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::string endpoint() const {
    return "tcp:127.0.0.1:" + std::to_string(Port);
  }

  void stop() {
    ClientConnection Conn;
    if (Conn.connect(endpoint())) {
      Request Shut;
      Shut.Type = MsgType::Shutdown;
      Response Ack;
      Conn.roundTrip(Shut, Ack);
    }
    Loop.join();
    if (!UnixPath.empty())
      ::unlink(UnixPath.c_str());
  }
};

/// Connections-vs-latency: one fleet run per iteration, every bot holds
/// its connection until the whole fleet has finished querying, so the
/// percentiles are measured AT the plateau of N concurrent connections.
void transport_warm_p99(benchmark::State &State) {
  unsigned NumBots = unsigned(State.range(0));
  BenchEpollServer Server;
  Server.start();
  raiseFdLimit();

  BotFleetResult Last;
  for (auto _ : State) {
    BotFleetOptions Opts;
    Opts.Address = Server.endpoint();
    Opts.NumBots = NumBots;
    Opts.QueriesPerBot = 8;
    Opts.Command = "where 0";
    Opts.HoldOpen = true;
    Last = runBotFleet(Opts);
    if (Last.Failed != 0 || !Last.Error.empty()) {
      State.SkipWithError(("fleet failure: " + Last.Error).c_str());
      break;
    }
    benchmark::DoNotOptimize(Last.QueriesAnswered);
  }
  Server.stop();
  State.SetItemsProcessed(int64_t(State.iterations()) * NumBots * 8);
  State.counters["Conns"] = double(NumBots);
  State.counters["PeakConns"] = double(Last.PeakConcurrent);
  State.counters["P50us"] = double(Last.P50us);
  State.counters["P99us"] = double(Last.P99us);
  State.counters["BusyRetries"] = double(Last.BusyRetries);
}

/// Fd-count-vs-churn: each iteration is one connect/round-trip/
/// disconnect cycle; FdDelta is the leak check across the whole run.
void transport_fd_churn(benchmark::State &State) {
  unsigned Cycles = unsigned(State.range(0));
  BenchEpollServer Server;
  Server.start();

  // Let the readiness probe's server-side fd finish reaping: sample
  // until the count holds still so Before is a stable baseline.
  size_t Before = openFdCount();
  for (int W = 0; W != 200; ++W) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    size_t Now = openFdCount();
    if (Now == Before)
      break;
    Before = Now;
  }
  for (auto _ : State) {
    for (unsigned I = 0; I != Cycles; ++I) {
      ClientConnection Conn;
      if (!Conn.connect(Server.endpoint())) {
        State.SkipWithError("connect failed");
        break;
      }
      Request Stats;
      Stats.Type = MsgType::Stats;
      Response Resp;
      Conn.roundTrip(Stats, Resp);
    }
  }
  // Give the loop a beat to reap the last EOFs before counting.
  for (int W = 0; W != 200 && openFdCount() > Before; ++W)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  double Delta = double(openFdCount()) - double(Before);
  Server.stop();
  State.SetItemsProcessed(int64_t(State.iterations()) * Cycles);
  State.counters["Cycles"] = double(Cycles);
  State.counters["FdDelta"] = Delta;
}

} // namespace

BENCHMARK(transport_warm_p99)->Arg(1)->Arg(64)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(transport_fd_churn)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
