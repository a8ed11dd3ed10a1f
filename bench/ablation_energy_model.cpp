// Ablation: energy-model sensitivity. The paper's energy conclusions (e.g.
// "RTM is more energy-efficient than TinySTM and sequential for small
// working sets", "labyrinth multi-thread RTM burns energy") should not
// depend on the exact static-power share. This bench sweeps the package
// idle power and the per-core active power around the calibrated values and
// re-checks the two headline energy comparisons.

#include "bench/eigen_driver.h"
#include "stamp/apps/labyrinth.h"

using namespace tsx;
using namespace tsx::bench;

namespace {

// A headline ratio plus the wasted-energy share of the ratio's RTM run
// (--energy-split column; computed either way, printed on request).
struct Headline {
  double ratio = 0;
  double wasted_share = 0;
};

// RTM-vs-sequential energy ratio for the eigenbench default (16K WS), one
// rep.
Headline eigen_energy_ratio(double idle_w, double core_w, bool fast,
                            uint64_t seed, const std::string& obs_label) {
  eigenbench::EigenConfig eb = paper_default_eb(fast ? 80 : 150);
  auto mk = [&](core::Backend b, uint32_t threads, const std::string& label) {
    core::RunConfig cfg = eigen_run_cfg(b, threads, seed);
    cfg.machine.energy.w_package_idle = idle_w;
    cfg.machine.energy.w_core_active = core_w;
    apply_settings(cfg, label);
    return eigenbench::run(cfg, eb);
  };
  auto seq = mk(core::Backend::kSeq, 1, "");
  auto rtm = mk(core::Backend::kRtm, 4, obs_label);
  return {rtm.report.joules() / (4.0 * seq.report.joules()),
          rtm.report.energy_split().wasted_share()};
}

// labyrinth RTM energy at 4 threads vs 1 thread, one rep.
Headline labyrinth_energy_growth(double idle_w, double core_w, bool fast,
                                 uint64_t seed, const std::string& obs_label) {
  stamp::LabyrinthConfig app;
  app.width = 32;
  app.height = 32;
  app.paths = fast ? 8 : 16;
  auto mk = [&](uint32_t threads, const std::string& label) {
    core::RunConfig cfg;
    cfg.backend = core::Backend::kRtm;
    cfg.threads = threads;
    cfg.machine.seed = seed;
    cfg.machine.energy.w_package_idle = idle_w;
    cfg.machine.energy.w_core_active = core_w;
    apply_settings(cfg, label);
    return stamp::run_labyrinth(cfg, app);
  };
  auto one = mk(1, "");
  auto four = mk(4, obs_label);
  return {four.report.joules() / one.report.joules(),
          four.report.energy_split().wasted_share()};
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv, {.energy_split = true});
  print_header("Ablation", "energy-model sensitivity",
               "headline energy results must hold across static/dynamic "
               "power splits");

  struct Split {
    const char* key;  // cell labels
    const char* name;
    double idle_w, core_w;
  };
  std::vector<Split> splits = {
      {"static-light", "static-light (7W idle, 9W/core)", 7, 9},
      {"calibrated", "calibrated (14W idle, 7.5W/core)", 14, 7.5},
      {"static-heavy", "static-heavy (28W idle, 5W/core)", 28, 5},
  };

  // Per split: one cell per eigen rep, then one per labyrinth rep.
  std::vector<Cell<Headline>> cells;
  for (const Split& s : splits) {
    for (bool laby : {false, true}) {
      for (int rep = 0; rep < args.reps; ++rep) {
        uint64_t seed = (laby ? 9700 : 9600) + rep;
        cells.push_back(
            {std::string("energy_model:") + s.key +
                 (laby ? ":labyrinth:rep" : ":eigen:rep") + std::to_string(rep),
             seed, [s, laby, seed, fast = args.fast](const std::string& label) {
               return laby ? labyrinth_energy_growth(s.idle_w, s.core_w, fast,
                                                     seed, label)
                           : eigen_energy_ratio(s.idle_w, s.core_w, fast, seed,
                                                label);
             }});
      }
    }
  }
  std::vector<Headline> reps =
      run_cells(args, "ablation_energy_model", {}, cells);

  std::vector<std::string> cols = {
      "power split", "RTM/seq energy (16K eigen, <1 = RTM wins)",
      "labyrinth RTM 4t/1t energy (>1 = waste grows)"};
  if (args.energy_split) {
    cols.push_back("eigen wasted-share");
    cols.push_back("labyrinth 4t wasted-share");
  }
  util::Table t(cols);
  // Each headline is the mean over its reps, in rep order.
  size_t i = 0;
  auto mean_of_reps = [&] {
    std::vector<double> r, ws;
    for (int rep = 0; rep < args.reps; ++rep, ++i) {
      r.push_back(reps[i].ratio);
      ws.push_back(reps[i].wasted_share);
    }
    return Headline{util::mean(r), util::mean(ws)};
  };
  for (const auto& s : splits) {
    Headline eigen = mean_of_reps();
    Headline laby = mean_of_reps();
    std::vector<std::string> row{s.name, util::Table::fmt(eigen.ratio, 3),
                                 util::Table::fmt(laby.ratio, 3)};
    if (args.energy_split) {
      row.push_back(util::Table::fmt(eigen.wasted_share, 3));
      row.push_back(util::Table::fmt(laby.wasted_share, 3));
    }
    t.add_row(row);
  }
  emit(t, args);
  std::cout << "Both qualitative claims should hold in every row.\n";
  return 0;
}
