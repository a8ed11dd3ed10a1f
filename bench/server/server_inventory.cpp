// Server workload: inventory reservation on raw transactions (ROADMAP
// item 2).
//
// Reads reserve a two-item basket all-or-nothing (the conditional
// cross-key transaction); writes restock. Conservation law: initial +
// restocked - reserved == sum of stock. The flash-crowd phase drains the
// hot items, so the miss column (rejected reservations) becomes part of
// the traffic story, not just an error count.

#include "bench/server/server_driver.h"

using namespace tsx;
using namespace tsx::bench;
using namespace tsx::bench::server;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv, {.verify = true});
  print_header("Server/Inventory", "open-loop inventory reservation",
               "traffic-shaped scoreboard (no paper figure; ROADMAP item 2)");

  TrafficConfig traffic;
  traffic.mean_interarrival = 1400;
  traffic.seed = 9300;
  traffic.phases =
      default_phases(args.fast ? 250 : 1200, /*write_ratio=*/0.15);

  return run_server_bench("server_inventory", ServiceKind::kInventory,
                          traffic, args);
}
