// Load generation: an open loop over HTTP at a fixed offered rate, and a
// closed loop (in process, or over HTTP with one connection per caller)
// that also measures each call's CPU time.
// One process; at most `threads` worker threads, each with one connection.
//
// Open loop: request i of a phase is due at start + i / rate. A worker
// takes the next request, sleeps until it is due, sends it, and records
// its latency from the DUE time, so a stall also charges the requests it
// delayed. How late the worker actually sent it is the generator lag,
// which validates the run and is not a result.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "catalog.h"

namespace perfbench {

struct Sample {
  double latency_ms = 0.0;
  // CPU time the call took: the caller thread's, plus what the serving
  // processes spent meanwhile when the loop is given their CPU clock.
  double cpu_ms = 0.0;
  double lag_ms = 0.0;
  uint8_t cls = 0;
  bool ok = false;
};

struct PhaseStats {
  std::vector<Sample> samples;
  uint64_t failed = 0;
  uint64_t connections = 0;
  double elapsed_s = 0.0;

  std::vector<double> Latencies(int cls = -1) const;
  std::vector<double> CpuCosts(int cls = -1) const;
  double LagP99() const;
  double CompletedPerSecond() const;
};

// The request stream of one workload: pre-rendered targets per catalog
// query plus the seeded order.
struct RequestStream {
  const Catalog* catalog = nullptr;
  std::vector<std::string> targets;     // per catalog query
  std::vector<uint32_t> sequence;       // catalog indexes, in order
  size_t next = 0;                      // next unused position

  // Consumes `n` positions (wrapping) and returns the first one.
  size_t Take(size_t n);
  uint32_t At(size_t position) const {
    return sequence[position % sequence.size()];
  }
};

PhaseStats OpenLoop(uint16_t port, RequestStream* stream, double rate,
                    double duration_s, size_t threads);

// Closed loop: `callers` threads call `fn(caller, position)` back to back
// for `duration_s` (or until `max_calls`), positions taken from `stream`.
// `fn` returns whether the call succeeded. Each sample's CPU time is the
// caller thread's; with `server_cpu_ns` (the summed CPU clocks of the
// processes that serve the calls) and one caller, it also includes what
// those processes spent while the call was outstanding.
PhaseStats ClosedLoop(size_t callers, RequestStream* stream,
                      double duration_s, size_t max_calls,
                      const std::function<bool(size_t, size_t)>& fn,
                      const std::function<int64_t()>& server_cpu_ns = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
