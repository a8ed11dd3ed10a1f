// tm_explorer: interactive Eigenbench exploration from the command line.
// Dial any of the paper's seven TM characteristics (Table II) and compare
// all five backends on the same workload.
//
//   ./tm_explorer --threads=4 --ws=65536 --len=100 --pollution=0.1
//                 --locality=0 --hot=0 --hot-bytes=65536 --predominance=1
//                 [--loops=200]
//   (one command line, wrapped here)
//
// Characteristics mapping:
//   concurrency        --threads
//   working-set size   --ws           (bytes per thread)
//   transaction length --len          (accesses per tx)
//   pollution          --pollution    (write fraction, 0..1)
//   temporal locality  --locality     (repeat probability, 0..1)
//   contention         --hot / --hot-bytes  (shared accesses per tx / array)
//   predominance       --predominance (tx cycles / total cycles, 0..1)

#include <iostream>

#include "eigenbench/eigenbench.h"
#include "util/flags.h"
#include "util/table.h"

using namespace tsx;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  uint32_t threads = static_cast<uint32_t>(flags.get_int("threads", 4));
  uint64_t ws = static_cast<uint64_t>(flags.get_int("ws", 64 * 1024));
  uint32_t len = static_cast<uint32_t>(flags.get_int("len", 100));
  double pollution = flags.get_double("pollution", 0.1);
  double locality = flags.get_double("locality", 0.0);
  uint32_t hot = static_cast<uint32_t>(flags.get_int("hot", 0));
  uint64_t hot_bytes = static_cast<uint64_t>(flags.get_int("hot-bytes", 64 * 1024));
  double predominance = flags.get_double("predominance", 1.0);
  uint64_t loops = static_cast<uint64_t>(flags.get_int("loops", 200));
  for (const auto& f : flags.unconsumed()) {
    std::cerr << "unknown flag --" << f << "\n";
    return 1;
  }
  if (pollution < 0 || pollution > 1 || locality < 0 || locality > 1 ||
      predominance <= 0 || predominance > 1 || len == 0 || hot > len) {
    std::cerr << "parameter out of range\n";
    return 1;
  }

  eigenbench::EigenConfig eb;
  eb.loops = loops;
  uint32_t tx_accesses = len - hot;
  eb.writes_mild = static_cast<uint32_t>(tx_accesses * pollution + 0.5);
  eb.reads_mild = tx_accesses - eb.writes_mild;
  eb.writes_hot = static_cast<uint32_t>(hot * pollution + 0.5);
  eb.reads_hot = hot - eb.writes_hot;
  eb.ws_bytes = ws;
  eb.hot_bytes = hot_bytes;
  eb.locality = locality;
  uint32_t out_ops =
      static_cast<uint32_t>(len * (1.0 - predominance) / predominance + 0.5);
  eb.reads_cold = out_ops - out_ops / 10;
  eb.writes_cold = out_ops / 10;

  std::cout << "Eigenbench: " << threads << " threads, WS " << ws
            << " B/thread, tx length " << len << " (pollution "
            << util::Table::fmt(pollution, 2) << "), locality "
            << util::Table::fmt(locality, 2) << ", hot accesses " << hot
            << "/" << hot_bytes << " B shared, predominance "
            << util::Table::fmt(predominance, 2) << "\n";
  if (hot > 0) {
    double pw = eigenbench::conflict_probability(
        threads, eb.reads_hot, eb.writes_hot, hot_bytes / 8);
    double pl = eigenbench::conflict_probability_lines(threads, eb.reads_hot,
                                                       eb.writes_hot, hot_bytes);
    std::cout << "Estimated conflict probability: "
              << util::Table::fmt(pw, 4) << " (word) / "
              << util::Table::fmt(pl, 4) << " (line, what RTM sees)\n";
  }
  std::cout << "\n";

  core::RunConfig seq_cfg;
  seq_cfg.backend = core::Backend::kSeq;
  seq_cfg.threads = 1;
  auto seq = eigenbench::run(seq_cfg, eb);

  util::Table t({"backend", "Mcycles", "speedup", "energy-eff", "abort rate"});
  t.add_row({"SEQ(1t)", util::Table::fmt(seq.report.wall_cycles / 1e6, 3),
             "1.00", "1.00", "-"});
  for (core::Backend b : {core::Backend::kLock, core::Backend::kRtm,
                          core::Backend::kTinyStm, core::Backend::kTl2}) {
    core::RunConfig cfg;
    cfg.backend = b;
    cfg.threads = threads;
    auto run = eigenbench::run(cfg, eb);
    double sp = threads * static_cast<double>(seq.report.wall_cycles) /
                static_cast<double>(run.report.wall_cycles);
    double ee = threads * seq.report.joules() / run.report.joules();
    double ar = b == core::Backend::kRtm ? run.report.rtm.abort_rate()
                                         : run.report.stm.abort_rate();
    t.add_row({core::backend_name(b),
               util::Table::fmt(run.report.wall_cycles / 1e6, 3),
               util::Table::fmt(sp, 2), util::Table::fmt(ee, 2),
               b == core::Backend::kLock ? "-" : util::Table::fmt(ar, 3)});
  }
  t.print(std::cout);
  return 0;
}
