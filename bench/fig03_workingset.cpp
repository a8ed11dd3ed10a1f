// Fig. 3: Eigenbench working-set size analysis (8K .. 128M per thread).
//
// Paper shape: RTM beats TinySTM for small working sets; both dip once the
// combined working sets exceed the 8M L3 (worst at 4M/thread, where the
// sequential baseline still fits); TinySTM shows false-conflict aborts from
// 16M (lock-table aliasing); RTM recovers somewhat at very large sets; RTM
// is the energy winner up to ~1M.

#include "bench/eigen_driver.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Fig. 3", "Eigenbench working-set size sweep",
               "RTM wins small WS; both dip past L3; TinySTM false conflicts "
               "at 16M+; RTM more energy-efficient up to ~1M");

  std::vector<uint64_t> ws_bytes = {8ull << 10,  32ull << 10, 128ull << 10,
                                    512ull << 10, 1ull << 20, 4ull << 20,
                                    16ull << 20, 64ull << 20};
  if (args.fast) {
    ws_bytes = {8ull << 10, 256ull << 10, 4ull << 20, 16ull << 20};
  }

  // Sweep grid: per working-set size, an RTM and a TinySTM cell. All
  // (cell x rep) runs are independent simulations — the harness shards them
  // across host cores (--jobs) and returns points in grid order. The sizes
  // ascend and a cell's host time grows with its size, so the size is the
  // cost hint that starts the largest cells first.
  std::vector<EigenTask> tasks;
  for (uint64_t ws : ws_bytes) {
    eigenbench::EigenConfig eb = paper_default_eb(args.fast ? 120 : 250);
    eb.ws_bytes = ws;
    // Keep total accesses constant across sizes (loops fixed): larger sets
    // are colder, exactly the effect under study.
    const double cost = static_cast<double>(ws);
    tasks.push_back({core::Backend::kRtm, 4, eb, 7000, cost});
    tasks.push_back({core::Backend::kTinyStm, 4, eb, 7000, cost});
  }
  std::vector<EigenPoint> points = eigen_points("fig03_workingset", tasks, args);

  util::Table t({"WS/thread", "RTM speedup", "TinySTM speedup",
                 "RTM energy-eff", "TinySTM energy-eff", "RTM aborts",
                 "TinySTM aborts"});
  for (size_t i = 0; i < ws_bytes.size(); ++i) {
    uint64_t ws = ws_bytes[i];
    const EigenPoint& rtm = points[2 * i];
    const EigenPoint& stm = points[2 * i + 1];
    std::string label = ws >= (1 << 20)
                            ? std::to_string(ws >> 20) + "M"
                            : std::to_string(ws >> 10) + "K";
    t.add_row({label, util::Table::fmt(rtm.speedup, 2),
               util::Table::fmt(stm.speedup, 2),
               util::Table::fmt(rtm.energy_eff, 2),
               util::Table::fmt(stm.energy_eff, 2),
               util::Table::fmt(rtm.abort_rate, 3),
               util::Table::fmt(stm.abort_rate, 3)});
  }
  emit(t, args);
  return 0;
}
