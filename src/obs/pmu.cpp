#include "obs/pmu.h"

#include <map>
#include <ostream>
#include <string>

#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "util/json.h"

namespace tsx::obs {

PmuData TraceSink::pmu_data(const sim::MachineStats& machine, sim::Cycles wall,
                            const std::vector<sim::Cycles>& ctx_finish,
                            const std::vector<sim::Cycles>& ctx_busy,
                            double core_busy, const sim::EnergyParams& energy,
                            double freq_ghz) const {
  PmuData d;
  d.threads = static_cast<uint32_t>(ctx_finish.size());
  d.freq_ghz = freq_ghz;
  d.wall = wall;
  d.machine = machine;
  d.machine.core_busy_cycles = core_busy;
  d.mismatched = mismatched_;
  d.tx_duration = tx_duration_;
  d.abort_latency = abort_latency_;
  d.retries = retries_;

  // ---- Whole-run totals: the fold of the window series ----
  std::map<uint32_t, ElideLockCounters> elide;  // keyed (and sorted) by id
  for (const auto& [id, name] : lock_names_) elide[id].name = name;
  for (const MetricsWindow& w : windows_) {
    d.stm_starts += w.stm_starts;
    d.stm_commits += w.stm_commits;
    d.stm_aborts += w.stm_aborts;
    d.fallbacks += w.fallbacks;
    for (const auto& [id, e] : w.elide) elide[id].add(e);
  }
  for (auto& [id, e] : elide) {
    e.lock = id;
    if (e.name.empty()) e.name = "lock#" + std::to_string(id);
    d.elide.push_back(std::move(e));
  }

  // ---- Per-context cycle identity ----
  d.ctx.resize(d.threads);
  for (uint32_t i = 0; i < d.threads; ++i) {
    const CtxRecord& c = ctx_[i];
    PmuCtxSplit& s = d.ctx[i];
    if (c.open) ++d.mismatched;  // attempt never closed (body threw out)
    s.committed = c.committed;
    s.wasted = c.wasted;
    s.finish = ctx_finish[i];
    s.busy = i < ctx_busy.size() ? ctx_busy[i] : 0;
    sim::Cycles in_tx = c.committed + c.wasted;
    if (in_tx > s.finish || s.finish > wall) {
      d.identity_ok = false;  // attempt windows exceed the context's clock
      s.non_tx = in_tx > s.finish ? 0 : s.finish - in_tx;
    } else {
      s.non_tx = s.finish - in_tx;
    }
    s.idle = s.finish <= wall ? wall - s.finish : 0;
    d.split.committed += s.committed;
    d.split.wasted += s.wasted;
    d.split.non_tx += s.non_tx;
    d.split.idle += s.idle;
  }
  if (d.mismatched) d.identity_ok = false;

  // ---- Whole-run energy and its committed-vs-wasted split ----
  sim::EnergyModel em(energy, freq_ghz);
  const sim::MemStats& ms = machine.mem;
  d.energy = em.compute(machine.ops, ms.l1_accesses(), ms.l2_accesses(),
                        ms.l3_accesses(), ms.mem_accesses,
                        ms.invalidations + ms.c2c_transfers, ms.writebacks,
                        core_busy, wall);
  double busy_j = d.energy.dynamic_j + d.energy.core_active_j;
  double denom = static_cast<double>(d.split.committed + d.split.wasted +
                                     d.split.non_tx);
  if (denom > 0) {
    d.energy_split.committed_j =
        busy_j * static_cast<double>(d.split.committed) / denom;
    d.energy_split.wasted_j =
        busy_j * static_cast<double>(d.split.wasted) / denom;
  }
  // Remainder, so the split sums to total_j() exactly.
  d.energy_split.non_tx_j =
      busy_j - d.energy_split.committed_j - d.energy_split.wasted_j;
  d.energy_split.static_j = d.energy.package_idle_j;

  // ---- The perf-stat event list (DESIGN.md documents the mapping) ----
  sim::Cycles cycles = 0;
  for (sim::Cycles b : ctx_busy) cycles += b;
  auto add = [&d](const char* name, const char* hsw, uint64_t v) {
    d.counters.push_back(PerfCounter{name, hsw, v});
  };
  auto reason = [&machine](sim::AbortReason r) {
    return machine.tx.aborts_by_reason[static_cast<size_t>(r)];
  };
  add("cpu-cycles", "CPU_CLK_THREAD_UNHALTED.THREAD (sum)", cycles);
  add("instructions", "INST_RETIRED.ANY", machine.ops);
  add("mem-loads", "MEM_UOPS_RETIRED.ALL_LOADS", ms.loads);
  add("mem-stores", "MEM_UOPS_RETIRED.ALL_STORES", ms.stores);
  add("l1-hits", "MEM_LOAD_UOPS_RETIRED.L1_HIT", ms.l1_hits);
  add("l2-hits", "MEM_LOAD_UOPS_RETIRED.L2_HIT", ms.l2_hits);
  add("l3-hits", "MEM_LOAD_UOPS_RETIRED.L3_HIT", ms.l3_hits);
  add("llc-misses", "LONGEST_LAT_CACHE.MISS", ms.mem_accesses);
  add("hitm-transfers", "MEM_LOAD_UOPS_L3_HIT_RETIRED.XSNP_HITM",
      ms.c2c_transfers);
  add("writebacks", "L2_TRANS.L2_WB", ms.writebacks);
  add("page-faults", "faults", ms.page_faults);
  add("interrupts", "HW_INTERRUPTS.RECEIVED", machine.interrupts);
  add("tx-start", "RTM_RETIRED.START", machine.tx.started);
  add("tx-commit", "RTM_RETIRED.COMMIT", machine.tx.committed);
  add("tx-abort", "RTM_RETIRED.ABORTED", machine.tx.aborted());
  static const char* kMiscNames[] = {"tx-abort-misc1", "tx-abort-misc2",
                                     "tx-abort-misc3", "tx-abort-misc4",
                                     "tx-abort-misc5"};
  static const char* kMiscEvents[] = {
      "RTM_RETIRED.ABORTED_MISC1", "RTM_RETIRED.ABORTED_MISC2",
      "RTM_RETIRED.ABORTED_MISC3", "RTM_RETIRED.ABORTED_MISC4",
      "RTM_RETIRED.ABORTED_MISC5"};
  for (size_t i = 0; i < static_cast<size_t>(sim::MiscBucket::kCount); ++i) {
    add(kMiscNames[i], kMiscEvents[i], machine.tx.aborts_by_misc[i]);
  }
  add("tx-conflict", "TX_MEM.ABORT_CONFLICT",
      reason(sim::AbortReason::kConflict));
  add("tx-capacity-read", "TX_MEM.ABORT_CAPACITY_READ",
      reason(sim::AbortReason::kReadCapacity));
  add("tx-capacity-write", "TX_MEM.ABORT_CAPACITY_WRITE",
      reason(sim::AbortReason::kWriteCapacity));
  add("stm-start", "(software: STM attempts)", d.stm_starts);
  add("stm-commit", "(software: STM commits)", d.stm_commits);
  add("stm-abort", "(software: STM aborts)", d.stm_aborts);
  add("fallbacks", "(software: retry-policy fallbacks)", d.fallbacks);
  return d;
}

namespace {

// Locale-independent thousands grouping ("1234567" -> "1,234,567"); perf
// stat's value column, byte-stable everywhere.
std::string group_digits(uint64_t v) {
  std::string raw = std::to_string(v);
  std::string out;
  out.reserve(raw.size() + raw.size() / 3);
  size_t lead = raw.size() % 3 == 0 ? 3 : raw.size() % 3;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out += ',';
    out += raw[i];
  }
  return out;
}

std::string rpad(std::string s, size_t w) {
  if (s.size() < w) s.append(w - s.size(), ' ');
  return s;
}

std::string lpad(std::string s, size_t w) {
  if (s.size() < w) s.insert(0, w - s.size(), ' ');
  return s;
}

std::string pct(sim::Cycles part, sim::Cycles whole) {
  double p = whole ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0.0;
  return util::json_fixed(p, 1) + "%";
}

void write_hist_line(std::ostream& os, const char* name,
                     const Log2Histogram& h) {
  os << " " << rpad(name, 22) << " p50=" << h.percentile(50)
     << "  p95=" << h.percentile(95) << "  p99=" << h.percentile(99)
     << "  mean=" << util::json_fixed(h.mean(), 1) << "  n=" << h.count()
     << "\n";
}

}  // namespace

void write_perf_stat(std::ostream& os, const std::vector<Capture>& captures) {
  for (const Capture& c : captures) {
    if (!c.pmu) continue;
    const PmuData& d = *c.pmu;
    os << "==== perf stat: " << c.label << " ====\n";
    os << " Simulated Haswell, " << d.threads << " hw thread"
       << (d.threads == 1 ? "" : "s") << " @ "
       << util::json_fixed(d.freq_ghz, 2) << " GHz; wall "
       << group_digits(d.wall) << " cycles = "
       << util::json_fixed(static_cast<double>(d.wall) / (d.freq_ghz * 1e9), 6)
       << " s\n\n";
    for (const PerfCounter& pc : d.counters) {
      os << " " << lpad(group_digits(pc.value), 15) << "  " << rpad(pc.name, 18)
         << "  # " << pc.haswell << "\n";
    }
    os << "\n cycle attribution (committed + wasted + non-tx + idle == wall, "
          "per hw thread)"
       << (d.identity_ok ? "" : " [IDENTITY VIOLATED]") << ":\n";
    for (uint32_t i = 0; i < d.ctx.size(); ++i) {
      const PmuCtxSplit& s = d.ctx[i];
      os << "   ctx" << i << "  committed " << lpad(pct(s.committed, d.wall), 6)
         << "  wasted " << lpad(pct(s.wasted, d.wall), 6) << "  non-tx "
         << lpad(pct(s.non_tx, d.wall), 6) << "  idle "
         << lpad(pct(s.idle, d.wall), 6) << "\n";
    }
    os << "   total committed " << group_digits(d.split.committed)
       << "  wasted " << group_digits(d.split.wasted) << "  non-tx "
       << group_digits(d.split.non_tx) << "  idle "
       << group_digits(d.split.idle) << "  (cycles, summed)\n";
    os << "\n energy: total " << util::json_fixed(d.energy.total_j(), 6)
       << " J = dynamic " << util::json_fixed(d.energy.dynamic_j, 6)
       << " + core-active " << util::json_fixed(d.energy.core_active_j, 6)
       << " + package-idle " << util::json_fixed(d.energy.package_idle_j, 6)
       << "\n";
    os << " energy split: committed "
       << util::json_fixed(d.energy_split.committed_j, 6) << " J  wasted "
       << util::json_fixed(d.energy_split.wasted_j, 6) << " J  non-tx "
       << util::json_fixed(d.energy_split.non_tx_j, 6) << " J  static "
       << util::json_fixed(d.energy_split.static_j, 6) << " J\n\n";
    write_hist_line(os, "tx duration (cycles)", d.tx_duration);
    write_hist_line(os, "abort latency (cycles)", d.abort_latency);
    write_hist_line(os, "retries per commit", d.retries);
    if (!d.elide.empty()) {
      os << "\n lock elision (per lock):\n";
      for (const ElideLockCounters& e : d.elide) {
        sim::Cycles spec = e.cycles_elided + e.cycles_wasted;
        os << "   " << rpad(e.name, 16) << " acq "
           << lpad(group_digits(e.acquisitions), 8) << "  elided "
           << lpad(group_digits(e.elided), 8) << "  fallback "
           << lpad(group_digits(e.fallbacks), 6) << "  lock "
           << lpad(group_digits(e.lock_acquires), 6) << "  self-stop "
           << e.self_stops << "  attempts "
           << lpad(group_digits(e.attempts), 8) << "  wasted "
           << lpad(pct(e.cycles_wasted, spec), 6) << "\n";
      }
    }
    if (d.heap.present) {
      const HeapPmuCounters& h = d.heap;
      os << "\n heap (malloc placement):\n";
      os << "   policy " << rpad(h.policy, 12) << " allocs "
         << lpad(group_digits(h.allocs), 10) << "  frees "
         << lpad(group_digits(h.frees), 10) << "  refills "
         << lpad(group_digits(h.refills), 6) << "\n";
      os << "   live " << lpad(group_digits(h.bytes_live), 12) << " B  peak "
         << lpad(group_digits(h.bytes_peak), 12) << " B  padding "
         << lpad(group_digits(h.bytes_padding), 10) << " B\n";
      uint64_t placed = 0, used = 0, max_count = 0;
      size_t max_set = 0;
      for (size_t i = 0; i < h.set_allocs.size(); ++i) {
        placed += h.set_allocs[i];
        if (h.set_allocs[i]) ++used;
        if (h.set_allocs[i] > max_count) {
          max_count = h.set_allocs[i];
          max_set = i;
        }
      }
      os << "   set-occupancy: " << h.set_allocs.size() << " L1 sets, "
         << used << " used";
      if (placed) {
        os << ", max " << group_digits(max_count) << " placements on set "
           << max_set << " = "
           << util::json_fixed(100.0 * static_cast<double>(max_count) /
                                   static_cast<double>(placed),
                               1)
           << "% of " << group_digits(placed);
      }
      os << "\n";
    }
    size_t snapshots = c.metrics ? c.metrics->snapshots() : 0;
    if (snapshots) {
      os << " samples: " << snapshots << " (interval boundaries; see "
         << "--timeseries for the CSV)\n";
    }
    os << "\n";
  }
}

}  // namespace tsx::obs
