#include "workloads.h"

#include <cmath>
#include <memory>
#include <ostream>
#include <streambuf>

#include "bench/eigen_driver.h"
#include "spans.h"

namespace tsxbench {

namespace core = tsx::core;
namespace obs = tsx::obs;
namespace sim = tsx::sim;
namespace server = tsx::bench::server;
using core::Backend;

namespace {

// Sizes keep one pass near a second or two: the host time of a run is
// taken over many passes (see main.cpp). Eigen transactions per cell, each
// with about 100 simulated accesses; server requests per phase per worker,
// the server drivers' --fast count.
constexpr uint64_t kEigenLoops = 15000;
constexpr uint64_t kServerRequestsPerPhase = 250;
constexpr uint64_t kServerReps = 2;
constexpr sim::Cycles kMetricsWindow = 10000;

// Discards what the exporters write and counts the bytes.
class CountingBuf : public std::streambuf {
 public:
  uint64_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<uint64_t>(n);
    return n;
  }
};

uint64_t export_captures(const std::vector<obs::Capture>& caps) {
  CountingBuf buf;
  std::ostream os(&buf);
  obs::write_perf_stat(os, caps);
  obs::write_abort_report(os, caps);
  obs::write_openmetrics(os, caps);
  return buf.bytes;
}

void digest_report(tsx::harness::Digest& d, const core::RunReport& r) {
  d.add(r.wall_cycles);
  d.add(r.energy.total_j());
  const sim::MachineStats& m = r.machine;
  d.add(m.ops);
  d.add(m.mem.loads);
  d.add(m.mem.stores);
  d.add(m.mem.l1_hits);
  d.add(m.mem.l2_hits);
  d.add(m.mem.l3_hits);
  d.add(m.mem.mem_accesses);
  d.add(m.mem.c2c_transfers);
  d.add(m.tx.started);
  d.add(m.tx.committed);
  for (uint64_t a : m.tx.aborts_by_reason) d.add(a);
  d.add(r.rtm.attempts);
  d.add(r.rtm.commits);
  d.add(r.rtm.fallbacks);
  d.add(r.rtm.cycles_aborted);
  d.add(r.stm.starts);
  d.add(r.stm.commits);
  d.add(r.stm.aborts());
  d.add(r.stm.cycles_aborted);
  d.add(r.heap.allocs);
  d.add(r.heap.frees);
  d.add(r.heap.refills);
  d.add(r.heap.bytes_peak);
}

void digest_histogram(tsx::harness::Digest& d, const obs::Log2Histogram& h) {
  for (uint64_t c : h.counts()) d.add(c);
  d.add(h.sum());
}

// Turns on the exporters' obs settings for a STAMP app run (the app builds
// its RunConfig through stamp_run_cfg, which reads the process-global
// settings and the thread-local label) and restores them afterwards.
class StampObsScope {
 public:
  explicit StampObsScope(const std::string& label)
      : saved_(tsx::bench::obs_settings()), label_(label) {
    tsx::bench::ObsSettings& s = tsx::bench::obs_settings();
    s.perf_stat = s.abort_report = s.metrics = true;
    s.metrics_window = kMetricsWindow;
  }
  ~StampObsScope() { tsx::bench::obs_settings() = saved_; }
  StampObsScope(const StampObsScope&) = delete;
  StampObsScope& operator=(const StampObsScope&) = delete;

 private:
  tsx::bench::ObsSettings saved_;
  tsx::bench::ObsLabelScope label_;
};

// Times the constructor of a runtime like the one the cell's library call
// builds internally. The replica carries no registry label, so it leaves
// no obs capture behind.
void time_runtime_ctor(core::RunConfig cfg) {
  cfg.obs.label.clear();
  core::TxRuntime replica(std::move(cfg));
}

// Drains the obs captures an eigen or STAMP cell registered, then exports
// them.
void finalize_registered(CellOut& o) {
  double t0 = now_s();
  std::vector<obs::Capture> caps = obs::Registry::global().drain();
  double t1 = now_s();
  o.export_bytes = export_captures(caps);
  double t2 = now_s();
  o.phases.push_back({"finalize", t0, t1});
  o.phases.push_back({"export", t1, t2});
}

void run_eigen(const Cell& c, const tsx::eigenbench::EigenConfig& eb,
               CellOut& o) {
  core::RunConfig cfg = tsx::bench::eigen_run_cfg(c.backend, c.threads, c.seed);
  if (c.obs) {
    cfg.obs.enabled = true;
    cfg.obs.label = c.label;
    cfg.obs.metrics.window_cycles = kMetricsWindow;
  }
  double t0 = now_s();
  time_runtime_ctor(cfg);
  double t1 = now_s();
  tsx::eigenbench::EigenResult r = tsx::eigenbench::run(cfg, eb);
  double t2 = now_s();
  // Every write incremented its word, so the arrays must sum to the writes.
  if (r.increment_sum != r.total_writes) {
    o.ok = false;
    o.error = c.label + ": increment sum " + std::to_string(r.increment_sum) +
              " != writes " + std::to_string(r.total_writes);
  }
  double t3 = now_s();
  o.phases.push_back({"setup", t0, t1});
  o.phases.push_back({"run", t1, t2});
  o.phases.push_back({"verify", t2, t3});
  o.report = r.report;
  tsx::harness::Digest d;
  digest_report(d, r.report);
  d.add(r.total_reads);
  d.add(r.total_writes);
  d.add(r.read_checksum);
  d.add(r.increment_sum);
  o.digest = d.value();
  if (c.obs) finalize_registered(o);
}

void run_stamp(const Cell& c, const tsx::bench::StampApp& app, CellOut& o) {
  std::optional<StampObsScope> scope;
  if (c.obs) scope.emplace(c.label);
  double t0 = now_s();
  time_runtime_ctor(tsx::bench::stamp_run_cfg(c.backend, c.threads, c.seed,
                                              kStampFastInputs));
  double t1 = now_s();
  tsx::stamp::AppResult r =
      app.run(c.backend, c.threads, c.seed, kStampFastInputs);
  double t2 = now_s();
  if (!r.valid) {
    o.ok = false;
    o.error = c.label + ": " + r.validation_message;
  }
  double t3 = now_s();
  scope.reset();
  o.phases.push_back({"setup", t0, t1});
  o.phases.push_back({"run", t1, t2});
  o.phases.push_back({"verify", t2, t3});
  o.report = r.report;
  tsx::harness::Digest d;
  digest_report(d, r.report);
  d.add(r.work_items);
  d.add(static_cast<uint64_t>(r.valid));
  o.digest = d.value();
  if (c.obs) finalize_registered(o);
}

// The body of server::run_server_rep with the benchmark's seams: schedule
// generation, setup up to the measured barrier, the request loop, the
// conservation check, finalize and export each get their own phase. The
// simulated work is identical; the equivalence test pins that down.
void run_server(const Cell& c, const ServerSpec& s, CellOut& o) {
  const server::TrafficConfig& traffic = s.traffic;
  const uint32_t nw = traffic.threads;
  const size_t nphases = traffic.phases.size();
  ServerOut out;
  server::CellResult& res = out.res;

  double t_gen0 = now_s();
  std::vector<std::vector<server::Request>> sched(nw);
  res.lat_phase.resize(nphases);
  res.completed_phase.assign(nphases, 0);
  for (uint32_t w = 0; w < nw; ++w) {
    sched[w] = server::make_schedule(traffic, w);
    res.offered += sched[w].size();
    if (!sched[w].empty() && sched[w].back().arrival > res.offered_span) {
      res.offered_span = sched[w].back().arrival;
    }
  }
  double t_gen1 = now_s();

  core::RunConfig cfg = server::server_run_cfg(c.backend, traffic, c.seed);
  if (c.obs) {
    cfg.obs.enabled = true;
    cfg.obs.metrics.window_cycles = kMetricsWindow;
  }
  core::TxRuntime rt(cfg);
  std::unique_ptr<server::Service> svc = server::make_service(s.kind, rt, traffic);

  struct WorkerStats {
    std::vector<obs::Log2Histogram> lat;
    std::vector<uint64_t> completed;
    obs::Log2Histogram queue, service;
    bool overloaded = false;
  };
  std::vector<WorkerStats> ws(nw);
  for (WorkerStats& st : ws) {
    st.lat.resize(nphases);
    st.completed.assign(nphases, 0);
  }
  const sim::Cycles overload_lag =
      traffic.mean_interarrival * server::kOverloadLagGaps;
  double t_measured = 0, t_verify0 = 0;

  rt.run([&](core::TxCtx& ctx) {
    uint32_t w = ctx.id();
    if (w == 0) svc->init(ctx);
    ctx.barrier();
    if (w == 0) {
      ctx.runtime().mark_measurement_start();
      t_measured = now_s();
    }
    ctx.barrier();
    sim::Cycles start = ctx.now();
    WorkerStats& st = ws[w];
    for (const server::Request& r : sched[w]) {
      sim::Cycles due = start + r.arrival;
      sim::Cycles now = ctx.now();
      if (now < due) {
        ctx.compute(due - now);
      } else if (now - due > overload_lag) {
        st.overloaded = true;
      }
      sim::Cycles begin = ctx.now();
      svc->handle(ctx, w, r);
      sim::Cycles done = ctx.now();
      st.lat[r.phase].record(done - due);
      st.queue.record(begin - due);
      st.service.record(done - begin);
      ++st.completed[r.phase];
    }
    ctx.barrier();
    if (w == 0) {
      t_verify0 = now_s();
      svc->verify(ctx);
    }
  });
  for (const WorkerStats& st : ws) {
    for (uint64_t n : st.completed) res.completed += n;
  }
  res.ok = svc->ok() && res.completed == res.offered;
  res.error = svc->ok() ? std::string() : svc->error();
  if (svc->ok() && !res.ok) {
    res.error = "completed " + std::to_string(res.completed) + " of " +
                std::to_string(res.offered) + " requests";
  }
  double t_verify1 = now_s();

  for (uint32_t w = 0; w < nw; ++w) {
    for (size_t p = 0; p < nphases; ++p) {
      res.lat_phase[p].merge(ws[w].lat[p]);
      res.completed_phase[p] += ws[w].completed[p];
    }
    out.queue.merge(ws[w].queue);
    out.service.merge(ws[w].service);
    res.overloaded = res.overloaded || ws[w].overloaded;
  }
  for (size_t p = 0; p < nphases; ++p) res.lat_all.merge(res.lat_phase[p]);
  core::RunReport rep = rt.report();
  res.wall = rep.wall_cycles;
  res.attempts = rep.rtm.attempts + rep.stm.starts;
  res.aborts = rep.rtm.aborts() + rep.stm.aborts();
  res.fallbacks = rep.rtm.fallbacks;
  tsx::elide::ElideStats es = svc->elide_totals();
  res.elide_attempts = es.attempts;
  res.elide_elided = es.elided;
  res.elide_fallbacks = es.fallbacks;
  res.misses = svc->misses();
  std::vector<obs::Capture> caps;
  if (c.obs) {
    obs::Capture cap = obs::make_capture(*rt.trace_sink(), c.label,
                                         cfg.machine.freq_ghz, cfg.threads);
    cap.pmu = rt.pmu_data();
    cap.metrics = rt.metrics_data();
    caps.push_back(std::move(cap));
  }
  double t_fin = now_s();
  if (c.obs) o.export_bytes = export_captures(caps);
  double t_exp = now_s();

  o.phases = {{"gen", t_gen0, t_gen1},        {"setup", t_gen1, t_measured},
              {"run", t_measured, t_verify0}, {"verify", t_verify0, t_verify1},
              {"finalize", t_verify1, t_fin}, {"export", t_fin, t_exp}};
  o.report = rep;
  o.ok = res.ok;
  o.error = res.error;
  o.ops = res.offered;
  o.failed = res.ok ? res.offered - res.completed : res.offered;
  tsx::harness::Digest d;
  digest_report(d, rep);
  d.add(res.offered);
  d.add(res.completed);
  d.add(res.offered_span);
  for (const obs::Log2Histogram& h : res.lat_phase) digest_histogram(d, h);
  digest_histogram(d, out.queue);
  digest_histogram(d, out.service);
  d.add(res.elide_attempts);
  d.add(res.elide_elided);
  d.add(res.elide_fallbacks);
  d.add(res.misses);
  d.add(static_cast<uint64_t>(res.overloaded));
  d.add(static_cast<uint64_t>(res.ok));
  o.digest = d.value();
  o.server = std::move(out);
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kEigen1t: return "eigen-1t";
    case Workload::kStampRtm: return "stamp-rtm";
    case Workload::kStampTinyStm: return "stamp-tinystm";
    case Workload::kServerMix: return "server-mix";
  }
  return "?";
}

std::vector<Workload> all_workloads() {
  return {Workload::kEigen1t, Workload::kStampRtm, Workload::kStampTinyStm,
          Workload::kServerMix};
}

bool workload_from_name(const std::string& s, Workload* out) {
  for (Workload w : all_workloads()) {
    if (s == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::vector<Cell> make_cells(Workload w, uint64_t seed, bool smoke) {
  std::vector<Cell> cells;
  const std::string wname = workload_name(w);
  switch (w) {
    case Workload::kEigen1t: {
      // Read-mostly and write-heavy transactions on a working set that fits
      // the 32 KiB L1, and the read-mostly mix on one that spills out of it.
      struct Variant {
        const char* name;
        uint32_t reads, writes;
        uint64_t ws_bytes;
      };
      const Variant variants[] = {{"read-16k", 90, 10, 16 << 10},
                                  {"write-16k", 20, 40, 16 << 10},
                                  {"read-128k", 90, 10, 128 << 10}};
      int group = 0;
      for (const Variant& v : variants) {
        for (Backend b : {Backend::kSeq, Backend::kRtm, Backend::kTinyStm,
                          Backend::kLock}) {
          tsx::eigenbench::EigenConfig eb;
          eb.loops = smoke ? 2000 : kEigenLoops;
          eb.reads_mild = v.reads;
          eb.writes_mild = v.writes;
          eb.ws_bytes = v.ws_bytes;
          eb.verify_increments = true;
          cells.push_back({wname + ":" + v.name + ":" + core::backend_name(b),
                           b, 1, seed - 2000, group, false, eb});
        }
        ++group;
      }
      break;
    }
    case Workload::kStampRtm:
    case Workload::kStampTinyStm: {
      Backend tm = w == Workload::kStampRtm ? Backend::kRtm : Backend::kTinyStm;
      int group = 0;
      const std::pair<Backend, uint32_t> runs[] = {{Backend::kSeq, 1}, {tm, 4}};
      for (const tsx::bench::StampApp& app : tsx::bench::stamp_apps()) {
        for (auto [b, threads] : runs) {
          cells.push_back({wname + ":" + app.name + ":" +
                               core::backend_name(b) + ":" +
                               std::to_string(threads) + "t",
                           b, threads, seed, group, false, app});
        }
        ++group;
      }
      break;
    }
    case Workload::kServerMix: {
      // Each service with its driver's own traffic constants
      // (bench/server/server_*.cpp).
      struct Traffic {
        server::ServiceKind kind;
        uint64_t mean_interarrival;
        uint64_t seed_offset;
        double write_ratio;
      };
      const Traffic services[] = {
          {server::ServiceKind::kKv, 1600, 100, 0.10},
          {server::ServiceKind::kOrderBook, 1400, 200, 0.45},
          {server::ServiceKind::kInventory, 1400, 300, 0.15}};
      const uint64_t reps = smoke ? 1 : kServerReps;
      for (const Traffic& sv : services) {
        ServerSpec spec;
        spec.kind = sv.kind;
        spec.traffic.mean_interarrival = sv.mean_interarrival;
        spec.traffic.seed = seed + sv.seed_offset;
        spec.traffic.phases = server::default_phases(
            smoke ? 100 : kServerRequestsPerPhase, sv.write_ratio);
        for (Backend b : server::server_backends()) {
          for (uint64_t rep = 0; rep < reps; ++rep) {
            cells.push_back({wname + ":" + server::service_name(sv.kind) + ":" +
                                 core::backend_name(b) + ":rep" +
                                 std::to_string(rep),
                             b, spec.traffic.threads, spec.traffic.seed + rep,
                             -1, true, spec});
          }
        }
      }
      break;
    }
  }
  return cells;
}

double CellOut::seconds(const char* phase) const {
  double s = 0;
  for (const Phase& p : phases) {
    if (std::string_view(p.name) == phase) s += p.end_s - p.start_s;
  }
  return s;
}

CellOut run_cell(const Cell& c) {
  CellOut o;
  o.start_s = now_s();
  if (const auto* eb = std::get_if<tsx::eigenbench::EigenConfig>(&c.work)) {
    run_eigen(c, *eb, o);
  } else if (const auto* app = std::get_if<tsx::bench::StampApp>(&c.work)) {
    run_stamp(c, *app, o);
  } else {
    run_server(c, std::get<ServerSpec>(c.work), o);
  }
  if (!o.ok) o.failed = o.ops;
  o.end_s = now_s();
  return o;
}

SeqRatios seq_ratios(const std::vector<Cell>& cells,
                     const std::vector<CellOut>& outs) {
  SeqRatios r;
  double log_t = 0, log_e = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].group < 0 || cells[i].backend == Backend::kSeq) continue;
    for (size_t j = 0; j < cells.size(); ++j) {
      if (cells[j].group != cells[i].group ||
          cells[j].backend != Backend::kSeq) {
        continue;
      }
      double t = static_cast<double>(outs[i].report.wall_cycles) /
                 static_cast<double>(outs[j].report.wall_cycles);
      double e = outs[i].report.joules() / outs[j].report.joules();
      r.time_per_cell.push_back(t);
      log_t += std::log(t);
      log_e += std::log(e);
      break;
    }
  }
  if (!r.time_per_cell.empty()) {
    double n = static_cast<double>(r.time_per_cell.size());
    r.time = std::exp(log_t / n);
    r.energy = std::exp(log_e / n);
  }
  return r;
}

}  // namespace tsxbench
