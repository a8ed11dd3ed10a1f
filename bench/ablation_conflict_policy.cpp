// Ablation: conflict-resolution policy — requester-wins (Intel's documented
// TSX behaviour, the default) vs mutual-kill (conflicts on bouncing lines
// abort both parties, which empirical TSX studies observe).
//
// Two lessons this ablation demonstrates:
//   1. With the Algorithm-1 serial fallback, mutual-kill degrades contended
//      throughput (more wasted speculation) but everything still completes
//      — the fallback guarantees progress.
//   2. Best-effort HTM fundamentally NEEDS that fallback: a bare retry loop
//      under mutual-kill can effectively livelock (we bound the experiment
//      and report attempts/commit instead of hanging).

#include "bench/bench_common.h"
#include "eigenbench/eigenbench.h"
#include "htm/rtm.h"
#include "stamp/apps/app.h"

using namespace tsx;
using namespace tsx::bench;

namespace {

// One rep of one policy: the contended eigen run and the bare retry loop.
struct Row {
  double wall_mcycles = 0;
  double abort_rate = 0;
  double fallback_rate = 0;
  double bare = 0;  // attempts per commit, -1 when the loop livelocked
};

Row contended_eigen(bool mutual_kill, int loops, uint64_t seed,
                    const std::string& obs_label) {
  core::RunConfig cfg;
  cfg.backend = core::Backend::kRtm;
  cfg.threads = 4;
  cfg.machine.seed = seed;
  cfg.machine.mutual_kill_conflicts = mutual_kill;
  apply_settings(cfg, obs_label);
  eigenbench::EigenConfig eb;
  eb.loops = loops;
  eb.reads_mild = 0;
  eb.writes_mild = 0;
  eb.reads_hot = 45;
  eb.writes_hot = 5;
  eb.hot_bytes = 16 * 1024;
  auto r = eigenbench::run(cfg, eb);
  Row row;
  row.wall_mcycles = r.report.wall_cycles / 1e6;
  row.abort_rate = r.report.rtm.abort_rate();
  row.fallback_rate = r.report.rtm.fallback_rate();
  return row;
}

// Bare retry loop (no fallback): counts attempts needed for a fixed number
// of commits, capped so a livelock terminates.
double bare_retry_attempts_per_commit(bool mutual_kill, uint64_t seed) {
  core::RunConfig cfg;
  cfg.backend = core::Backend::kSeq;
  cfg.threads = 4;
  cfg.machine.seed = seed;
  cfg.machine.mutual_kill_conflicts = mutual_kill;
  apply_settings(cfg);  // untraced: the cell traces its eigen run
  core::TxRuntime rt(cfg);
  auto& m = rt.machine();
  sim::Addr counter = rt.heap().host_alloc(8, 64);
  const int commits_per_thread = 50;
  const uint64_t attempt_cap = 40'000;
  uint64_t attempts_total = 0;
  bool capped = false;
  rt.run([&](core::TxCtx& ctx) {
    (void)ctx;
    uint64_t attempts = 0;
    for (int i = 0; i < commits_per_thread; ++i) {
      for (;;) {
        ++attempts;
        if (attempts > attempt_cap) {
          capped = true;
          break;
        }
        auto r = htm::attempt(m, [&] {
          sim::Word v = m.load(counter);
          m.compute(60);
          m.store(counter, v + 1);
        });
        if (r.committed) break;
      }
      if (capped) break;
    }
    attempts_total += attempts;
  });
  if (capped) return -1.0;  // livelocked (hit the cap)
  return static_cast<double>(attempts_total) / (4.0 * commits_per_thread);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Ablation", "conflict policy: requester-wins vs mutual-kill",
               "mutual-kill wastes more speculation (fallback still "
               "guarantees progress); a bare retry loop can livelock");

  int loops = args.fast ? 60 : 150;
  std::vector<Cell<Row>> cells;
  for (bool mk : {false, true}) {
    for (int rep = 0; rep < args.reps; ++rep) {
      cells.push_back({std::string("conflict_policy:") +
                           (mk ? "mutual-kill" : "requester-wins") + ":rep" +
                           std::to_string(rep),
                       9800 + static_cast<uint64_t>(rep),
                       [=](const std::string& label) {
                         Row r = contended_eigen(mk, loops, 9800 + rep, label);
                         r.bare =
                             bare_retry_attempts_per_commit(mk, 9900 + rep);
                         return r;
                       }});
    }
  }
  std::vector<Row> rows =
      run_cells(args, "ablation_conflict_policy", {}, cells);

  util::Table t({"policy", "eigen Mcycles", "abort rate", "fallback rate",
                 "bare-retry attempts/commit"});
  size_t i = 0;
  for (bool mk : {false, true}) {
    std::vector<double> wall, ar, fb;
    double bare = 0;
    for (int rep = 0; rep < args.reps; ++rep) {
      const Row& r = rows[i++];
      wall.push_back(r.wall_mcycles);
      ar.push_back(r.abort_rate);
      fb.push_back(r.fallback_rate);
      bare = r.bare;
    }
    t.add_row({mk ? "mutual-kill" : "requester-wins",
               util::Table::fmt(util::mean(wall), 2),
               util::Table::fmt(util::mean(ar), 3),
               util::Table::fmt(util::mean(fb), 3),
               bare < 0 ? "LIVELOCK (capped)" : util::Table::fmt(bare, 1)});
  }
  emit(t, args);
  return 0;
}
