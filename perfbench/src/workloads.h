// The benchmark's three workloads. Each returns the result line's fields;
// with `trace` set it reports the per-layer metrics instead of the
// end-to-end ones.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;    // graft_server / graft_router
  std::string cache_dir;  // serving-index cache (keyed by source hash)
  std::string work_dir;   // scratch files of this run
  // Test hook: perturb the correctness reference so the gate must fail.
  bool break_reference = false;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  std::string error;  // non-empty: the run could not complete
};

Outcome RunHttpLongtail(const RunArgs& args);
Outcome RunEnginePressure(const RunArgs& args);
Outcome RunRoutedHttp(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
