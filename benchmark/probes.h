#pragma once
// Layer probes: short timed loops over one hot path of one layer each
// (an L1-hit load, a fiber switch, an RTM attempt, STM read and write
// transactions, a heap alloc/free pair, an elided critical section). They
// give each layer a host cost per operation that does not depend on the
// workload's mix. Only the traced run takes them.

#include <string>
#include <vector>

namespace tsxbench {

struct ProbeResult {
  std::string metric;  // per-layer metric name, e.g. "sim.l1_load_ns"
  double ns_per_op = 0;
  double start_s = 0;
  double end_s = 0;
};

// Runs every probe several times and reports the median of each.
std::vector<ProbeResult> run_probes();

}  // namespace tsxbench
