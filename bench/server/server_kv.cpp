// Server workload: KV/session store on the elide layer (ROADMAP item 2).
//
// An open-loop Zipfian request stream (2M keys, 1M clients) against a
// 64-shard hash table guarded by elide::shared_mutex — reads elide the
// shared flavour, writes the exclusive one, and every request bumps a
// session counter in a raw transaction. Scripted phases: steady state, a
// hot-key flash crowd (arrival spike, 80% of traffic on 16 keys), a write
// burst. Scoreboard: offered vs sustained throughput, p50/p95/p99 latency
// (corrected, upper-bound-flavored percentiles), abort/fallback/elision
// attribution — per backend, per phase.

#include "bench/server/server_driver.h"

using namespace tsx;
using namespace tsx::bench;
using namespace tsx::bench::server;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv, {.verify = true});
  print_header("Server/KV", "open-loop KV/session store on lock elision",
               "traffic-shaped scoreboard (no paper figure; ROADMAP item 2)");

  TrafficConfig traffic;
  traffic.mean_interarrival = 1600;
  traffic.seed = 9100;
  traffic.phases =
      default_phases(args.fast ? 250 : 1200, /*write_ratio=*/0.10);

  return run_server_bench("server_kv", ServiceKind::kKv, traffic, args);
}
