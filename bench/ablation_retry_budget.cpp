// Ablation: the fallback retry budget (the paper fixes MAX_RETRIES = 8).
//
// Sweeps MAX_RETRIES on a contended STAMP-like workload (intruder) and on a
// capacity-doomed one (labyrinth). Expected: small budgets serialize too
// eagerly under contention (lock aborts snowball); large budgets waste
// cycles re-attempting hopeless capacity overflows; 4-16 is the sweet spot
// for conflict-dominated workloads while capacity-dominated ones want the
// smallest budget.

#include "bench/bench_common.h"
#include "stamp/apps/intruder.h"
#include "stamp/apps/labyrinth.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Ablation", "RTM fallback retry budget (MAX_RETRIES)",
               "paper uses 8; conflict workloads tolerate larger budgets, "
               "capacity workloads want small ones");

  std::vector<int> budgets = {1, 2, 4, 8, 16, 64};
  if (args.fast) budgets = {1, 8, 64};

  stamp::IntruderConfig iapp;
  iapp.flows = args.fast ? 128 : 384;
  iapp.max_fragments = 10;
  stamp::LabyrinthConfig lapp;
  lapp.width = 32;
  lapp.height = 32;
  lapp.paths = args.fast ? 8 : 16;

  std::vector<Cell<stamp::AppResult>> cells;
  for (int budget : budgets) {
    for (int rep = 0; rep < args.reps; ++rep) {
      for (bool laby : {false, true}) {
        const char* app = laby ? "labyrinth" : "intruder";
        uint64_t seed = 9300 + rep;
        cells.push_back(
            {"retry_budget:" + std::to_string(budget) + ":" + app + ":rep" +
                 std::to_string(rep),
             seed, [=](const std::string& label) {
               core::RunConfig cfg;
               cfg.backend = core::Backend::kRtm;
               cfg.threads = 4;
               cfg.retry.max_attempts = budget;
               cfg.machine.seed = seed;
               cfg.seed = cfg.machine.seed;
               apply_settings(cfg, label);
               stamp::AppResult res = laby ? stamp::run_labyrinth(cfg, lapp)
                                           : stamp::run_intruder(cfg, iapp);
               if (!res.valid) {
                 throw std::runtime_error(std::string(app) + " invalid: " +
                                          res.validation_message);
               }
               return res;
             }});
      }
    }
  }
  std::vector<stamp::AppResult> results =
      run_cells(args, "ablation_retry_budget", {}, cells);

  util::Table t({"MAX_RETRIES", "intruder Mcycles", "intruder fallback rate",
                 "labyrinth Mcycles", "labyrinth fallback rate"});
  size_t i = 0;
  for (int budget : budgets) {
    std::vector<double> it, ifb, lt, lfb;
    for (int rep = 0; rep < args.reps; ++rep) {
      const stamp::AppResult& ires = results[i++];
      it.push_back(ires.report.wall_cycles / 1e6);
      ifb.push_back(ires.report.rtm.fallback_rate());
      const stamp::AppResult& lres = results[i++];
      lt.push_back(lres.report.wall_cycles / 1e6);
      lfb.push_back(lres.report.rtm.fallback_rate());
    }
    t.add_row({std::to_string(budget), util::Table::fmt(util::mean(it), 2),
               util::Table::fmt(util::mean(ifb), 3),
               util::Table::fmt(util::mean(lt), 2),
               util::Table::fmt(util::mean(lfb), 3)});
  }
  emit(t, args);
  return 0;
}
