// Ablation: TinySTM (encounter-time locking + timestamp extension) vs TL2
// (commit-time locking, no extension).
//
// The paper chose TinySTM over TL2 after finding "TinySTM consistently
// outperforms TL2" (§VI, referencing the Yoo et al. RTM-vs-TL2 study).
// This bench reruns the Eigenbench default configuration plus a contended
// variant under both STMs.

#include "bench/eigen_driver.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Ablation", "STM design: TinySTM vs TL2",
               "the paper reports TinySTM consistently ahead of TL2");

  struct Scenario {
    const char* name;
    eigenbench::EigenConfig eb;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario s{"default 90r/10w 16K", paper_default_eb(args.fast ? 100 : 200)};
    scenarios.push_back(s);
  }
  {
    Scenario s{"write-heavy 50r/50w", paper_default_eb(args.fast ? 100 : 200)};
    s.eb.reads_mild = 50;
    s.eb.writes_mild = 50;
    scenarios.push_back(s);
  }
  {
    Scenario s{"contended hot 4K", paper_default_eb(args.fast ? 100 : 200)};
    s.eb.reads_mild = 84;
    s.eb.writes_mild = 8;
    s.eb.reads_hot = 4;
    s.eb.writes_hot = 4;
    s.eb.hot_bytes = 4096;
    scenarios.push_back(s);
  }

  std::vector<EigenTask> tasks;
  for (const auto& s : scenarios) {
    tasks.push_back({core::Backend::kTinyStm, 4, s.eb, 7000});
    tasks.push_back({core::Backend::kTl2, 4, s.eb, 7000});
  }
  std::vector<EigenPoint> points =
      eigen_points("ablation_stm_design", tasks, args);

  util::Table t({"scenario", "TinySTM speedup", "TL2 speedup",
                 "TinySTM aborts", "TL2 aborts", "TinySTM energy-eff",
                 "TL2 energy-eff"});
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const EigenPoint& tiny = points[2 * i];
    const EigenPoint& tl2 = points[2 * i + 1];
    t.add_row({scenarios[i].name, util::Table::fmt(tiny.speedup, 2),
               util::Table::fmt(tl2.speedup, 2),
               util::Table::fmt(tiny.abort_rate, 3),
               util::Table::fmt(tl2.abort_rate, 3),
               util::Table::fmt(tiny.energy_eff, 2),
               util::Table::fmt(tl2.energy_eff, 2)});
  }
  emit(t, args);
  return 0;
}
