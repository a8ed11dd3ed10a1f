// Figs. 10 and 11: STAMP execution time and energy, RTM vs TinySTM,
// 1/2/4/8 threads, normalized to a sequential (non-TM) run. Both tables
// come from one simulated grid: each cell's run and its SEQ baseline give
// the time and the energy ratio alike.
//
// Fig. 10 paper shapes per app (§IV): bayes/yada — TinySTM wins at all
// counts; genome/vacation — tie to 4 threads, RTM drops at 8; intruder —
// RTM scales to 4, tie at 8; kmeans/ssca2 — RTM ahead; labyrinth — RTM
// serializes.
//
// Fig. 11 paper shapes: kmeans — only RTM saves energy vs sequential;
// labyrinth — RTM energy grows with threads (wasted doomed speculation);
// bayes / labyrinth / yada — energy trends decouple from performance trends
// as threads scale (cache/bus activity).

#include "bench/stamp_driver.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv, {.energy_split = true});
  print_header("Fig. 10", "STAMP execution time (normalized to sequential)",
               "lower is better; see per-app shapes in the paper's §IV");

  std::vector<uint32_t> threads = {1, 2, 4, 8};
  std::vector<StampTask> tasks;
  for (const auto& app : stamp_apps()) {
    for (core::Backend b : {core::Backend::kRtm, core::Backend::kTinyStm}) {
      for (uint32_t n : threads) tasks.push_back({app, b, n, 9000});
    }
  }
  std::vector<StampCell> cells = stamp_cells("fig10_stamp_perf", tasks, args);

  // --energy-split appends Fig. 11's wasted-energy share (fraction of
  // active energy spent in aborted attempts) per thread count; the default
  // columns stay byte-identical either way.
  std::vector<std::string> energy_cols = {"app", "system", "1t", "2t", "4t",
                                          "8t"};
  if (args.energy_split) {
    for (uint32_t n : threads) {
      energy_cols.push_back(std::to_string(n) + "t-wasted");
    }
  }
  util::Table time({"app", "system", "1t", "2t", "4t", "8t"});
  util::Table energy(energy_cols);
  for (size_t i = 0; i < tasks.size(); i += threads.size()) {
    std::vector<std::string> time_row{tasks[i].app.name,
                                      core::backend_name(tasks[i].backend)};
    std::vector<std::string> energy_row = time_row;
    for (size_t k = 0; k < threads.size(); ++k) {
      time_row.push_back(util::Table::fmt(cells[i + k].norm_time, 2));
      energy_row.push_back(util::Table::fmt(cells[i + k].norm_energy, 2));
    }
    if (args.energy_split) {
      for (size_t k = 0; k < threads.size(); ++k) {
        energy_row.push_back(util::Table::fmt(cells[i + k].wasted_share, 3));
      }
    }
    time.add_row(time_row);
    energy.add_row(energy_row);
  }
  emit(time, args);
  std::cout << "All runs validated their final application state.\n";

  print_header("Fig. 11", "STAMP energy (normalized to sequential)",
               "lower is better; kmeans: only RTM < 1.0; labyrinth RTM grows "
               "with threads");
  emit(energy, args);
  return 0;
}
