#pragma once
// Shared driver for the Eigenbench figure reproductions (Figs. 3-9).
// Each figure sweeps one characteristic and reports, per backend:
// speedup over the sequential run of the same configuration, energy
// efficiency over the sequential run, and the abort rate — the three panels
// (a)/(b)/(c) of every Eigenbench figure in the paper.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "eigenbench/eigenbench.h"

namespace tsx::bench {

struct EigenPoint {
  double speedup = 0;
  double energy_eff = 0;
  double abort_rate = 0;     // hardware aborts for the HTM backends
  double fallback_rate = 0;  // fallbacks per transaction (RTM, Hybrid)
};

inline core::RunConfig eigen_run_cfg(core::Backend b, uint32_t threads,
                                     uint64_t seed) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = threads;
  cfg.machine.seed = seed;
  cfg.seed = seed;
  return cfg;
}

// One rep of one (backend, threads, config) cell: the backend run plus its
// SEQ/1-thread baseline with the same per-thread workload and seed. This is
// the unit of work the parallel sweep harness shards across host cores —
// each call builds its own TxRuntime/Machine pair and shares nothing.
inline EigenPoint eigen_rep(core::Backend backend, uint32_t threads,
                            const eigenbench::EigenConfig& eb, uint64_t seed,
                            const std::string& obs_label) {
  core::RunConfig seq_cfg = eigen_run_cfg(core::Backend::kSeq, 1, seed);
  apply_settings(seq_cfg);  // the baseline stays untraced
  auto seq = eigenbench::run(seq_cfg, eb);
  core::RunConfig cfg = eigen_run_cfg(backend, threads, seed);
  apply_settings(cfg, obs_label);
  auto run = eigenbench::run(cfg, eb);
  // The parallel run does `threads` times the sequential per-thread work,
  // so speedup = threads * t_seq / t_par (the paper normalizes to the
  // sequential execution of the same total work).
  double work_ratio = static_cast<double>(threads);
  EigenPoint p;
  p.speedup = work_ratio * static_cast<double>(seq.report.wall_cycles) /
              static_cast<double>(run.report.wall_cycles);
  p.energy_eff = work_ratio * seq.report.joules() / run.report.joules();
  p.abort_rate = core::backend_is_stm(backend) ? run.report.stm.abort_rate()
                                               : run.report.rtm.abort_rate();
  p.fallback_rate = run.report.rtm.fallback_rate();
  return p;
}

// One cell of a figure's sweep grid: a backend/thread-count to measure under
// a fixed Eigenbench configuration. `cost` is its cells' Cell::cost hint.
struct EigenTask {
  core::Backend backend = core::Backend::kRtm;
  uint32_t threads = 4;
  eigenbench::EigenConfig eb;
  uint64_t seed0 = 7000;
  double cost = 0;
};

inline void digest_eigen_task(harness::Digest& d, const EigenTask& t) {
  d.add(static_cast<uint64_t>(t.backend));
  d.add(t.threads);
  d.add(t.seed0);
  const eigenbench::EigenConfig& e = t.eb;
  d.add(e.loops);
  d.add(e.reads_mild);
  d.add(e.writes_mild);
  d.add(e.ws_bytes);
  d.add(e.reads_hot);
  d.add(e.writes_hot);
  d.add(e.hot_bytes);
  d.add(e.reads_cold);
  d.add(e.writes_cold);
  d.add(e.cold_bytes);
  d.add(e.nops_in_tx);
  d.add(e.nops_out_tx);
  d.add(e.locality);
}

// Computes every task (x reps) through the parallel sweep harness; returns
// one averaged EigenPoint per task, in task order. Results are aggregated
// in (task, rep) index order, so the output — including floating-point
// summation order — is byte-identical for any --jobs value.
inline std::vector<EigenPoint> eigen_points(const std::string& bench_id,
                                            const std::vector<EigenTask>& tasks,
                                            const BenchArgs& args) {
  const size_t reps = static_cast<size_t>(args.reps);
  harness::Digest dig;
  for (const EigenTask& t : tasks) digest_eigen_task(dig, t);

  std::vector<Cell<EigenPoint>> cells;
  for (size_t i = 0; i < tasks.size() * reps; ++i) {
    const EigenTask& t = tasks[i / reps];
    const uint64_t seed = t.seed0 + i % reps;
    cells.push_back({bench_id + ":task" + std::to_string(i / reps) + ":" +
                         core::backend_name(t.backend) + ":rep" +
                         std::to_string(i % reps),
                     seed,
                     [&t, seed](const std::string& label) {
                       return eigen_rep(t.backend, t.threads, t.eb, seed,
                                        label);
                     },
                     t.cost});
  }
  std::vector<EigenPoint> samples = run_cells(args, bench_id, dig, cells);

  std::vector<EigenPoint> out(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    std::vector<double> sp, ee, ar, fb;
    for (size_t rep = 0; rep < reps; ++rep) {
      const EigenPoint& p = samples[t * reps + rep];
      sp.push_back(p.speedup);
      ee.push_back(p.energy_eff);
      ar.push_back(p.abort_rate);
      fb.push_back(p.fallback_rate);
    }
    out[t] = {util::mean(sp), util::mean(ee), util::mean(ar), util::mean(fb)};
  }
  return out;
}

// The paper's default eigenbench setup (§III-B): 100 accesses per tx
// (90 reads / 10 writes), 4 threads, measured over 10 runs.
inline eigenbench::EigenConfig paper_default_eb(uint64_t loops = 300) {
  eigenbench::EigenConfig eb;
  eb.loops = loops;
  eb.reads_mild = 90;
  eb.writes_mild = 10;
  eb.ws_bytes = 16 * 1024;
  return eb;
}

// Standard three-config comparison: RTM small WS, RTM medium WS, TinySTM
// small WS (the paper only shows TinySTM for the small working set).
struct EigenRow {
  std::string x_label;
  EigenPoint rtm_small, rtm_medium, stm_small;
};

// One x-axis point of a standard three-config figure: the base EigenConfig
// (ws_bytes is overridden to 16K/256K per column) at a thread count.
struct EigenRowSpec {
  std::string x_label;
  uint32_t threads = 4;
  eigenbench::EigenConfig eb;
};

// Expands each spec into its RTM-16K / TinySTM-16K / RTM-256K cells, runs
// the whole grid through the sweep harness, and returns the assembled rows
// in spec order.
inline std::vector<EigenRow> eigen_rows(const std::string& bench_id,
                                        const std::vector<EigenRowSpec>& specs,
                                        const BenchArgs& args) {
  std::vector<EigenTask> tasks;
  for (const EigenRowSpec& s : specs) {
    eigenbench::EigenConfig eb = s.eb;
    eb.ws_bytes = 16 * 1024;
    tasks.push_back({core::Backend::kRtm, s.threads, eb, 7000});
    tasks.push_back({core::Backend::kTinyStm, s.threads, eb, 7000});
    eb.ws_bytes = 256 * 1024;
    tasks.push_back({core::Backend::kRtm, s.threads, eb, 7000});
  }
  std::vector<EigenPoint> points = eigen_points(bench_id, tasks, args);
  std::vector<EigenRow> rows(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    rows[i].x_label = specs[i].x_label;
    rows[i].rtm_small = points[3 * i];
    rows[i].stm_small = points[3 * i + 1];
    rows[i].rtm_medium = points[3 * i + 2];
  }
  return rows;
}

inline void print_eigen_table(const std::string& x_name,
                              const std::vector<EigenRow>& rows,
                              const BenchArgs& args) {
  util::Table t({x_name, "RTM-16K speedup", "RTM-256K speedup",
                 "TinySTM speedup", "RTM-16K energy-eff", "RTM-256K energy-eff",
                 "TinySTM energy-eff", "RTM-16K aborts", "RTM-256K aborts",
                 "TinySTM aborts"});
  for (const auto& r : rows) {
    t.add_row({r.x_label, util::Table::fmt(r.rtm_small.speedup, 2),
               util::Table::fmt(r.rtm_medium.speedup, 2),
               util::Table::fmt(r.stm_small.speedup, 2),
               util::Table::fmt(r.rtm_small.energy_eff, 2),
               util::Table::fmt(r.rtm_medium.energy_eff, 2),
               util::Table::fmt(r.stm_small.energy_eff, 2),
               util::Table::fmt(r.rtm_small.abort_rate, 3),
               util::Table::fmt(r.rtm_medium.abort_rate, 3),
               util::Table::fmt(r.stm_small.abort_rate, 3)});
  }
  emit(t, args);
}

}  // namespace tsx::bench
