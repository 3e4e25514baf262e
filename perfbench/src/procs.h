// Child processes of the benchmark: graft_server shards and graft_router.
//
// A ServerProcess spawns one tool with `--port 0`, reads the port it
// prints on stderr, and waits until GET /healthz answers 200. Its
// destructor sends SIGTERM (the tools drain and exit), waits for the
// child, and falls back to SIGKILL, so every process the benchmark
// starts has ended before the benchmark exits. Children also get
// PR_SET_PDEATHSIG so they cannot outlive a benchmark that crashes.

#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `argv` (argv[0] is the executable path) and blocks until it
  // serves /healthz, for at most `timeout_s`. Returns false (with
  // `*error`) on failure; the child is stopped in that case.
  bool Start(const std::vector<std::string>& argv, double timeout_s,
             std::string* error);
  // SIGTERM, wait, SIGKILL after a grace period. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  // Peak resident set size of the running child, in MiB.
  double PeakRssMb() const;
  // CPU time of the running child (all its threads), in nanoseconds.
  int64_t CpuNanos() const { return ProcessCpuNanos(pid_); }

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
