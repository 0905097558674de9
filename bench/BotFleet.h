//===- bench/BotFleet.h - E13's client-fleet load generator -----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The load half of E13 (bench_transport): a single-threaded epoll fleet
/// of scripted debug clients. Each bot is a tiny state machine (connect →
/// OpenSession on program 0 → N serial `where 0` queries → hold →
/// CloseSession → disconnect) on a non-blocking TCP socket; the whole
/// fleet shares one EventDispatcher, so one process can hold tens of
/// thousands of live sessions against a server on the same box.
///
/// Connects are started in batches per timer tick (a SYN avalanche
/// would just measure the backlog), per-query latency lands in a
/// client-side LatencyHistogram, and every bot keeps its session open
/// until the last bot has finished — which is what makes "N concurrent
/// sessions" a measured fact (PeakConcurrent) instead of a churn
/// artifact.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_BENCH_BOTFLEET_H
#define PPD_BENCH_BOTFLEET_H

#include <cstdint>
#include <string>

namespace ppd::bench {

struct BotFleetOptions {
  /// Endpoint: "tcp:HOST:PORT".
  std::string Address;
  unsigned NumBots = 100;
  unsigned QueriesPerBot = 10;
};

struct BotFleetResult {
  uint64_t Failed = 0;
  uint64_t QueriesAnswered = 0;
  uint64_t BusyRetries = 0;     ///< Busy responses retried after backoff.
  uint64_t PeakConcurrent = 0;  ///< most sockets live at once.
  uint64_t P50us = 0;           ///< per-query round-trip percentiles.
  uint64_t P99us = 0;
  std::string Error;            ///< empty on a usable run.
};

/// Runs the fleet to completion (or its deadline, reported as an Error)
/// and reports. Blocking; call from a thread that owns no dispatcher.
BotFleetResult runBotFleet(const BotFleetOptions &Options);

} // namespace ppd::bench

#endif // PPD_BENCH_BOTFLEET_H
