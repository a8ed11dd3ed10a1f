// tsxbench: runs one workload of the tsxlab benchmark and prints its
// metrics, one "<workload> <metric> <value> <unit>" line each, then one JSON
// object as the last line of stdout.
//
// Usage:
//   tsxbench --workload W [--seed S] [--seconds N] [--trace 0|1|FILE]
//            [--out FILE] [--smoke]
//
// --seed S (default 9000) makes every input; the same seed gives the same
// inputs and the same simulated results. A pass runs every cell of the
// workload once through harness::Runner with one job. Passes repeat until
// the next one would end after N seconds (at least one pass).
//
// Host times are the minimum over a run's passes. The simulator is
// deterministic, so every pass does the same work; on a shared host,
// interference only ever adds time, and it comes and goes within seconds.
// The fastest pass is the run's steadiest estimate of the program's own
// cost, where a median drifts with the share of the run the host was busy.
//
// --trace 1 (or --trace FILE) repeats rounds of three passes instead: one
// untraced, one traced, and one traced with the obs plane flipped (on for
// eigen and STAMP cells, off for server cells). It then runs the layer
// probes and prints the per-layer metrics. The spans go to FILE as Chrome
// trace-event JSON (default build-bench/trace-W-S.json). --out FILE appends
// the run as one JSON line for compare.py. --smoke shrinks the inputs.
//
// Exit status: 0 when every check passed, 1 when a check failed (the JSON
// line then says "correct": false), 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "probes.h"
#include "spans.h"
#include "util/flags.h"
#include "workloads.h"

using namespace tsxbench;
namespace core = tsx::core;
namespace obs = tsx::obs;
namespace server = tsx::bench::server;

namespace {

struct Pass {
  std::vector<Cell> cells;
  std::vector<CellOut> outs;
  double start_s = 0;      // before the cell list is built
  double map_start_s = 0;  // Runner::map call
  double map_end_s = 0;
  uint64_t digest = 0;
  int root_span = -1;  // traced passes only

  // Setup the benchmark owns inside the cells: server schedule generation
  // and runtime setup, and the runtime-constructor replicas of the others.
  double cell_setup_s() const {
    double s = 0;
    for (const CellOut& o : outs) s += o.seconds("gen") + o.seconds("setup");
    return s;
  }
  double wall_s() const { return map_end_s - map_start_s - cell_setup_s(); }
  double setup_s() const { return map_start_s - start_s + cell_setup_s(); }
};

Pass run_pass(Workload w, uint64_t seed, bool smoke, bool flip_obs) {
  Pass p;
  p.start_s = now_s();
  p.cells = make_cells(w, seed, smoke);
  if (flip_obs) {
    for (Cell& c : p.cells) c.obs = !c.obs;
  }
  tsx::harness::RunnerOptions opt;
  opt.jobs = 1;
  opt.bench_id = "tsxbench";
  opt.quiet = true;
  tsx::harness::Runner runner(opt);
  p.map_start_s = now_s();
  p.outs = runner.map<CellOut>(
      p.cells.size(), [&p](size_t i) { return run_cell(p.cells[i]); },
      [&p](size_t i) {
        tsx::harness::Job j;
        j.seed = p.cells[i].seed;
        j.label = p.cells[i].label;
        return j;
      });
  p.map_end_s = now_s();
  tsx::harness::Digest d;
  for (const CellOut& o : p.outs) d.add(o.digest);
  p.digest = d.value();
  return p;
}

// Spans of one pass: root -> map -> cell -> phases.
void record_pass(Tracer& tr, Pass& p, const char* root_name, int& next_cell) {
  p.root_span = tr.add(root_name, p.start_s, p.map_end_s, -1, -1);
  int map = tr.add("map", p.map_start_s, p.map_end_s, p.root_span, -1);
  for (const CellOut& o : p.outs) {
    int id = next_cell++;
    int cell = tr.add("cell", o.start_s, o.end_s, map, id);
    for (const Phase& ph : o.phases) {
      tr.add(ph.name, ph.start_s, ph.end_s, cell, id);
    }
  }
}

// The host-time estimator of a run (see the top of this file).
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

std::string lower(std::string s) {
  for (char& ch : s) {
    if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
  }
  return s;
}

// Shortest decimal form that reads back as the same double.
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool sim = false;  // simulated: repeats exactly for one seed
};

struct Metrics {
  void host(std::string name, double v, std::string unit) {
    list.push_back({std::move(name), v, std::move(unit), false});
  }
  void sim(std::string name, double v, std::string unit) {
    list.push_back({std::move(name), v, std::move(unit), true});
  }
  std::vector<Metric> list;
};

// Simulated totals over the cells of one pass.
struct SimTotals {
  double mcyc = 0, energy_j = 0;  // cells other than the SEQ baselines
  uint64_t ops = 0, loads_stores = 0, l1_hits = 0, c2c = 0;
  uint64_t wasted_cycles = 0, thread_cycles = 0;
  uint64_t htm_started = 0, htm_committed = 0, htm_conflict = 0,
           htm_capacity = 0, rtm_fallbacks = 0;
  uint64_t stm_starts = 0, stm_commits = 0;
  uint64_t allocs = 0, refills = 0, bytes_peak = 0;
  uint64_t elide_attempts = 0, elide_elided = 0, elide_fallbacks = 0;
};

SimTotals sim_totals(const Pass& p) {
  SimTotals t;
  for (size_t i = 0; i < p.outs.size(); ++i) {
    const core::RunReport& r = p.outs[i].report;
    if (p.cells[i].backend != core::Backend::kSeq) {
      t.mcyc += static_cast<double>(r.wall_cycles) / 1e6;
      t.energy_j += r.joules();
    }
    const tsx::sim::MachineStats& m = r.machine;
    t.ops += m.ops;
    t.loads_stores += m.mem.loads + m.mem.stores;
    t.l1_hits += m.mem.l1_hits;
    t.c2c += m.mem.c2c_transfers;
    t.wasted_cycles += r.rtm.cycles_aborted + r.stm.cycles_aborted;
    t.thread_cycles += r.wall_cycles * p.cells[i].threads;
    t.htm_started += m.tx.started;
    t.htm_committed += m.tx.committed;
    using tsx::sim::AbortReason;
    auto aborts = [&m](AbortReason a) {
      return m.tx.aborts_by_reason[static_cast<size_t>(a)];
    };
    t.htm_conflict += aborts(AbortReason::kConflict);
    t.htm_capacity += aborts(AbortReason::kReadCapacity) +
                      aborts(AbortReason::kWriteCapacity);
    t.rtm_fallbacks += r.rtm.fallbacks;
    t.stm_starts += r.stm.starts;
    t.stm_commits += r.stm.commits;
    t.allocs += r.heap.allocs;
    t.refills += r.heap.refills;
    t.bytes_peak = std::max(t.bytes_peak, r.heap.bytes_peak);
    if (p.outs[i].server) {
      const server::CellResult& c = p.outs[i].server->res;
      t.elide_attempts += c.elide_attempts;
      t.elide_elided += c.elide_elided;
      t.elide_fallbacks += c.elide_fallbacks;
    }
  }
  return t;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void end_to_end(Metrics& m, const std::vector<Pass>& passes) {
  std::vector<double> wall, setup;
  for (const Pass& p : passes) {
    wall.push_back(p.wall_s());
    setup.push_back(p.setup_s());
  }
  const SimTotals t = sim_totals(passes.front());
  m.host("wall_s", best(wall), "s");
  m.host("setup_s", best(setup), "s");
  m.host("peak_rss_mb", peak_rss_mb(), "MB");
  m.sim("sim_mcyc", t.mcyc, "Mcyc");
  m.sim("sim_energy_j", t.energy_j, "J");
}

// Per-backend and per-service latency of the server cells, merged over
// services and reps the way the scoreboards merge them.
void serve_metrics(Metrics& m, const Pass& p) {
  const char* backends[] = {"rtm", "tinystm", "hybrid", "lock"};
  const char* services[] = {"kv", "orderbook", "inventory"};
  struct Agg {
    server::CellResult sum;
    obs::Log2Histogram queue, service;
  };
  std::map<std::string, Agg> by_backend;
  std::map<std::string, obs::Log2Histogram> by_service;
  for (size_t i = 0; i < p.outs.size(); ++i) {
    if (!p.outs[i].server) continue;
    const ServerOut& so = *p.outs[i].server;
    std::string b = lower(core::backend_name(p.cells[i].backend));
    const auto& spec = std::get<ServerSpec>(p.cells[i].work);
    Agg& a = by_backend[b];
    server::merge_cell(a.sum, so.res);
    a.queue.merge(so.queue);
    a.service.merge(so.service);
    by_service[std::string(server::service_name(spec.kind)) + "." + b].merge(
        so.res.lat_all);
  }
  auto pct = [](const obs::Log2Histogram& h, double q) {
    return static_cast<double>(h.percentile(q));
  };
  for (const char* b : backends) {
    const Agg& a = by_backend[b];
    const std::string s = b;
    m.sim("serve.p50_cyc." + s, pct(a.sum.lat_all, 50), "cyc");
    m.sim("serve.p99_cyc." + s, pct(a.sum.lat_all, 99), "cyc");
    m.sim("serve.queue_p99_cyc." + s, pct(a.queue, 99), "cyc");
    m.sim("serve.service_p50_cyc." + s, pct(a.service, 50), "cyc");
    m.sim("serve.sustained_frac." + s,
          ratio(server::per_mcycle(a.sum.completed, a.sum.wall),
                server::per_mcycle(a.sum.offered, a.sum.offered_span)),
          "frac");
  }
  for (const char* sv : services) {
    for (const char* b : backends) {
      std::string key = std::string(sv) + "." + b;
      m.sim("serve.p99_cyc." + key, pct(by_service[key], 99), "cyc");
    }
  }
}

// Self time of span `name` in each pass, by the spans the pass recorded.
std::vector<double> self_per_pass(const Tracer& tr,
                                  const std::vector<Pass>& passes,
                                  const char* name) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    std::map<std::string, double> self = tr.self_seconds(p.root_span);
    v.push_back(self[name]);
  }
  return v;
}

void per_layer(Metrics& m, const std::vector<Pass>& untraced,
               const std::vector<Pass>& traced, const std::vector<Pass>& flip,
               const Tracer& tr, const std::vector<ProbeResult>& probes) {
  const Pass& p = traced.front();
  const SimTotals t = sim_totals(p);
  auto self = [&tr, &traced](const char* name) {
    return best(self_per_pass(tr, traced, name));
  };
  // Obs is on in server-mix's own passes and off in the others'; the flip
  // passes are the other side.
  const bool traced_obs = p.cells.front().obs;
  const std::vector<Pass>& on = traced_obs ? traced : flip;
  const std::vector<Pass>& off = traced_obs ? flip : traced;
  auto probe = [&probes](const std::string& name) {
    for (const ProbeResult& r : probes) {
      if (r.metric == name) return r.ns_per_op;
    }
    return 0.0;
  };
  auto u = [](uint64_t v) { return static_cast<double>(v); };
  const double run_s = self("run");

  m.host("harness.dispatch_s", self("map"), "s");
  m.host("core.setup_s", self("setup"), "s");
  m.host("core.run_s", run_s, "s");

  m.sim("sim.ops", u(t.ops), "count");
  m.host("sim.host_ns_per_op", ratio(run_s * 1e9, u(t.ops)), "ns");
  m.sim("sim.l1_hit_frac", ratio(u(t.l1_hits), u(t.loads_stores)), "frac");
  m.sim("sim.c2c_transfers", u(t.c2c), "count");
  m.sim("sim.wasted_cycle_frac", ratio(u(t.wasted_cycles), u(t.thread_cycles)),
        "frac");
  m.host("sim.l1_load_ns", probe("sim.l1_load_ns"), "ns");
  m.host("sim.fiber_switch_ns", probe("sim.fiber_switch_ns"), "ns");

  m.sim("htm.attempts", u(t.htm_started), "count");
  m.sim("htm.commit_frac", ratio(u(t.htm_committed), u(t.htm_started)), "frac");
  m.sim("htm.aborts_conflict", u(t.htm_conflict), "count");
  m.sim("htm.aborts_capacity", u(t.htm_capacity), "count");
  m.sim("htm.fallbacks", u(t.rtm_fallbacks), "count");
  m.host("htm.attempt_ns", probe("htm.attempt_ns"), "ns");

  m.sim("stm.starts", u(t.stm_starts), "count");
  m.sim("stm.commit_frac", ratio(u(t.stm_commits), u(t.stm_starts)), "frac");
  m.host("stm.read_tx_ns", probe("stm.read_tx_ns"), "ns");
  m.host("stm.write_tx_ns", probe("stm.write_tx_ns"), "ns");

  m.sim("mem.allocs", u(t.allocs), "count");
  m.sim("mem.refills", u(t.refills), "count");
  m.sim("mem.bytes_peak", u(t.bytes_peak), "bytes");
  m.host("mem.alloc_free_ns", probe("mem.alloc_free_ns"), "ns");

  m.sim("elide.attempts", u(t.elide_attempts), "count");
  m.sim("elide.elided_frac", ratio(u(t.elide_elided), u(t.elide_attempts)),
        "frac");
  m.sim("elide.fallbacks", u(t.elide_fallbacks), "count");
  m.host("elide.fast_path_ns", probe("elide.fast_path_ns"), "ns");

  const double fold_s = best(self_per_pass(tr, on, "run")) -
                        best(self_per_pass(tr, off, "run"));
  uint64_t export_bytes = 0;
  for (const CellOut& o : on.front().outs) export_bytes += o.export_bytes;
  m.host("obs.fold_s", fold_s, "s");
  m.host("obs.fold_ns_per_attempt",
         ratio(fold_s * 1e9, u(t.htm_started + t.stm_starts)), "ns");
  m.host("obs.finalize_s", best(self_per_pass(tr, on, "finalize")), "s");
  m.host("obs.export_s", best(self_per_pass(tr, on, "export")), "s");
  m.sim("obs.export_bytes", u(export_bytes), "bytes");

  serve_metrics(m, p);

  SeqRatios r = seq_ratios(p.cells, p.outs);
  m.sim("paper.time_vs_seq", r.time, "ratio");
  m.sim("paper.energy_vs_seq", r.energy, "ratio");

  std::vector<double> tw, uw;
  for (const Pass& q : traced) tw.push_back(q.wall_s());
  for (const Pass& q : untraced) uw.push_back(q.wall_s());
  m.host("bench.trace_overhead_frac", ratio(best(tw), best(uw)) - 1.0, "frac");
}

std::string metrics_json(const std::vector<Metric>& list, bool with_kind) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < list.size(); ++i) {
    const Metric& mt = list[i];
    os << (i ? ", " : "") << "\"" << mt.name << "\": {\"value\": "
       << num(mt.value) << ", \"unit\": \"" << mt.unit << "\"";
    if (with_kind) os << ", \"kind\": \"" << (mt.sim ? "sim" : "host") << "\"";
    os << "}";
  }
  os << "}";
  return os.str();
}

std::string num_list(const std::vector<Pass>& passes,
                     double (Pass::*field)() const) {
  std::string s = "[";
  for (size_t i = 0; i < passes.size(); ++i) {
    s += (i ? ", " : "") + num((passes[i].*field)());
  }
  return s + "]";
}

int usage(const std::string& msg) {
  std::cerr << "tsxbench: " << msg
            << "\nusage: tsxbench --workload eigen-1t|stamp-rtm|stamp-tinystm|"
               "server-mix [--seed S] [--seconds N] [--trace 0|1|FILE] "
               "[--out FILE] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = now_s();
  Workload w{};
  uint64_t seed = 9000;
  double seconds = 25;
  bool trace = false, smoke = false;
  std::string trace_file, out_file;
  try {
    tsx::util::Flags flags(argc, argv);
    std::string wname = flags.get_string("workload", "");
    if (!workload_from_name(wname, &w)) {
      return usage("unknown or missing --workload '" + wname + "'");
    }
    int64_t s = flags.get_int("seed", 9000);
    if (s < 0) return usage("--seed must be >= 0");
    seed = static_cast<uint64_t>(s);
    seconds = flags.get_double("seconds", 25);
    std::string tr = flags.get_string("trace", "0");
    trace = tr != "0" && tr != "false";
    if (trace) {
      trace_file = (tr == "1" || tr == "true")
                       ? "build-bench/trace-" + wname + "-" +
                             std::to_string(seed) + ".json"
                       : tr;
    }
    out_file = flags.get_string("out", "");
    smoke = flags.get_bool("smoke", false);
    std::vector<std::string> un = flags.unconsumed();
    if (!un.empty()) return usage("unknown flag --" + un.front());
    if (!flags.positional().empty()) {
      return usage("unexpected argument '" + flags.positional().front() + "'");
    }
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  const std::string wname = workload_name(w);

  std::vector<Pass> untraced, traced, flip;
  Tracer tr;
  std::vector<ProbeResult> probes;
  try {
    int next_cell = 0;
    double last = 0;
    do {
      double t0 = now_s();
      untraced.push_back(run_pass(w, seed, smoke, false));
      if (trace) {
        traced.push_back(run_pass(w, seed, smoke, false));
        record_pass(tr, traced.back(), "pass", next_cell);
        flip.push_back(run_pass(w, seed, smoke, true));
        record_pass(tr, flip.back(), "obs-flip", next_cell);
      }
      last = now_s() - t0;
    } while (now_s() - t_start + last <= seconds);
    if (trace) {
      probes = run_probes();
      for (const ProbeResult& r : probes) {
        tr.add(r.metric, r.start_s, r.end_s, -1, -1);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "tsxbench: " << wname << ": " << e.what() << "\n";
    return 1;
  }

  // Correctness: every cell's checks, and the simulated results of every
  // pass (untraced, traced, obs flipped) identical to the first.
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  const uint64_t digest = untraced.front().digest;
  for (const std::vector<Pass>* set : {&untraced, &traced, &flip}) {
    for (const Pass& p : *set) {
      for (const CellOut& o : p.outs) {
        attempted += o.ops;
        failed += o.failed;
        if (!o.ok) {
          correct = false;
          std::cerr << "tsxbench: FAILED " << o.error << "\n";
        }
      }
      if (p.digest != digest) {
        correct = false;
        std::cerr << "tsxbench: " << wname
                  << ": simulated results differ between passes\n";
      }
    }
  }

  Metrics m;
  if (trace) {
    per_layer(m, untraced, traced, flip, tr, probes);
  } else {
    end_to_end(m, untraced);
  }

  char digest_hex[19];
  std::snprintf(digest_hex, sizeof(digest_hex), "0x%016llx",
                static_cast<unsigned long long>(digest));
  std::cout << wname << " sim_digest " << digest_hex << " hex\n";
  std::cout << wname << " passes " << untraced.size() << " count\n";
  for (const Metric& mt : m.list) {
    std::cout << wname << " " << mt.name << " " << num(mt.value) << " "
              << mt.unit << "\n";
  }

  if (trace) {
    std::ofstream os(trace_file);
    tr.write_chrome(os);
    if (os) {
      std::cerr << "tsxbench: wrote " << tr.spans().size() << " spans to "
                << trace_file << "\n";
    } else {
      std::cerr << "tsxbench: cannot write trace to '" << trace_file << "'\n";
    }
  }
  if (!out_file.empty()) {
    std::ofstream os(out_file, std::ios::app);
    os << "{\"workload\": \"" << wname << "\", \"seed\": " << seed
       << ", \"trace\": " << (trace ? 1 : 0)
       << ", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"sim_digest\": \"" << digest_hex
       << "\", \"correct\": " << (correct ? "true" : "false")
       << ", \"pass_wall_s\": " << num_list(untraced, &Pass::wall_s)
       << ", \"pass_setup_s\": " << num_list(untraced, &Pass::setup_s)
       << ", \"metrics\": " << metrics_json(m.list, true) << "}\n";
    if (!os) std::cerr << "tsxbench: cannot append to '" << out_file << "'\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(m.list, false) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
