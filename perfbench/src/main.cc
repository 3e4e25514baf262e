// The repository benchmark. run.py builds this binary and runs it as
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --bin-dir <dir with graft_server, graft_router>
//             --cache-dir <serving-index cache> --work-dir <scratch dir>
//
// The last line of stdout is the result object; everything else goes to
// stderr. Exit code 0 means the run completed and every output matched
// its reference; a correctness mismatch prints the result with
// "correct": false and exits 1; a run that cannot complete exits 2
// without a result.

#include <net/if.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "util.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload http_longtail|engine_pressure|"
               "routed_http --seed N --seconds S --trace 0|1 "
               "--bin-dir DIR --cache-dir DIR --work-dir DIR "
               "[--break-reference]\n");
  return 2;
}

// Moves this process, and every process it starts, into a private network
// namespace with its own loopback. The router opens a connection per shard
// request and the shard closes it, so a routed run leaves tens of
// thousands of TIME_WAIT sockets for 60 s; in a shared namespace they slow
// the next runs' connections (routed p50 rose 1.8 -> 5.5 ms over ten
// back-to-back runs). A private namespace takes them along when the run
// ends. Where the host does not allow it, the run stays in the current one.
bool IsolateNetwork() {
  if (::unshare(CLONE_NEWNET) != 0) return false;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  ifreq ifr{};
  std::strncpy(ifr.ifr_name, "lo", IFNAMSIZ - 1);
  bool up = ::ioctl(fd, SIOCGIFFLAGS, &ifr) == 0;
  ifr.ifr_flags |= IFF_UP;
  up = up && ::ioctl(fd, SIOCSIFFLAGS, &ifr) == 0;
  ::close(fd);
  return up;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--break-reference") {
      args.break_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--bin-dir") {
      args.bin_dir = value;
    } else if (arg == "--cache-dir") {
      args.cache_dir = value;
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.bin_dir.empty() || args.cache_dir.empty() ||
      args.work_dir.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (!IsolateNetwork()) {
    perfbench::Log("no private network namespace; sharing the host's");
  }

  perfbench::Outcome outcome;
  if (args.workload == "http_longtail") {
    outcome = perfbench::RunHttpLongtail(args);
  } else if (args.workload == "engine_pressure") {
    outcome = perfbench::RunEnginePressure(args);
  } else if (args.workload == "routed_http") {
    outcome = perfbench::RunRoutedHttp(args);
  } else {
    return Usage();
  }
  if (!outcome.error.empty()) {
    perfbench::Log("error: %s", outcome.error.c_str());
    return 2;
  }
  if (outcome.attempted == 0) {
    perfbench::Log("error: no request was attempted");
    return 2;
  }
  perfbench::PrintResult(outcome.correct, outcome.attempted, outcome.failed,
                         outcome.metrics);
  return outcome.correct ? 0 : 1;
}
