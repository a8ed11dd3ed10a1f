// Fig. 11: STAMP energy expenditure, RTM vs TinySTM, 1/2/4/8 threads,
// normalized to the sequential run's energy.
//
// Paper shapes: kmeans — only RTM saves energy vs sequential; labyrinth —
// RTM energy grows with threads (wasted doomed speculation); bayes /
// labyrinth / yada — energy trends decouple from performance trends as
// threads scale (cache/bus activity).

#include "bench/stamp_driver.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv, {.energy_split = true});
  print_header("Fig. 11", "STAMP energy (normalized to sequential)",
               "lower is better; kmeans: only RTM < 1.0; labyrinth RTM grows "
               "with threads");

  std::vector<uint32_t> threads = {1, 2, 4, 8};
  std::vector<StampTask> tasks;
  for (const auto& app : stamp_apps()) {
    for (core::Backend b : {core::Backend::kRtm, core::Backend::kTinyStm}) {
      for (uint32_t n : threads) tasks.push_back({app, b, n, 9000});
    }
  }
  std::vector<StampCell> cells = stamp_cells("fig11_stamp_energy", tasks, args);

  // --energy-split appends the wasted-energy share (fraction of active
  // energy spent in aborted attempts) per thread count; the default columns
  // stay byte-identical either way.
  std::vector<std::string> cols = {"app", "system", "1t", "2t", "4t", "8t"};
  if (args.energy_split) {
    for (uint32_t n : threads) {
      cols.push_back(std::to_string(n) + "t-wasted");
    }
  }
  util::Table t(cols);
  for (size_t i = 0; i < tasks.size(); i += threads.size()) {
    std::vector<std::string> row{tasks[i].app.name,
                                 core::backend_name(tasks[i].backend)};
    for (size_t k = 0; k < threads.size(); ++k) {
      row.push_back(util::Table::fmt(cells[i + k].norm_energy, 2));
    }
    if (args.energy_split) {
      for (size_t k = 0; k < threads.size(); ++k) {
        row.push_back(util::Table::fmt(cells[i + k].wasted_share, 3));
      }
    }
    t.add_row(row);
  }
  emit(t, args);
  return 0;
}
