// Server workload: order book / ledger on raw transactions (ROADMAP item 2).
//
// Zipf-keyed price levels with a conservation ledger (placed - matched ==
// sum of levels) updated in the same transaction as the level — a compact,
// high-contention shape where the flash-crowd phase funnels most traffic
// onto a handful of levels. Write ratio is balanced (placing vs matching).

#include "bench/server/server_driver.h"

using namespace tsx;
using namespace tsx::bench;
using namespace tsx::bench::server;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv, {.verify = true});
  print_header("Server/OrderBook", "open-loop order book / ledger",
               "traffic-shaped scoreboard (no paper figure; ROADMAP item 2)");

  TrafficConfig traffic;
  traffic.mean_interarrival = 1400;
  traffic.seed = 9200;
  traffic.phases =
      default_phases(args.fast ? 250 : 1200, /*write_ratio=*/0.45);

  return run_server_bench("server_orderbook", ServiceKind::kOrderBook, traffic,
                          args);
}
