#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/registry.h"
#include "util/json.h"
#include "util/table.h"

namespace tsx::obs {

// ---- MetricsWindow ----

double MetricsWindow::conflict_share() const {
  uint64_t all = aborts();
  if (!all) return 0.0;
  // STM aborts are data conflicts by construction (see TraceSink::stm_abort).
  uint64_t conf =
      aborts_by_reason[static_cast<size_t>(sim::AbortReason::kConflict)] +
      stm_aborts;
  return static_cast<double>(conf) / static_cast<double>(all);
}

double MetricsWindow::capacity_share() const {
  uint64_t all = aborts();
  if (!all) return 0.0;
  uint64_t cap =
      aborts_by_reason[static_cast<size_t>(sim::AbortReason::kReadCapacity)] +
      aborts_by_reason[static_cast<size_t>(sim::AbortReason::kWriteCapacity)];
  return static_cast<double>(cap) / static_cast<double>(all);
}

// ---- PhaseDetector ----

namespace {

// Per-channel deviation floors: detection thresholds are expressed in
// deviation units, so a floor keeps near-noiseless baselines (dev ~ 0) from
// turning tiny fluctuations into boundaries. Channel 0 is log-activity
// (0.08 ~ an 8% throughput shift); channels 1-2 are shares in [0, 1].
constexpr double kScaleFloor[PhaseDetector::kChannels] = {0.08, 0.02, 0.02};

double channel_value(int c, const MetricsWindow& w) {
  switch (c) {
    case PhaseDetector::kChannelActivity:
      return std::log1p(static_cast<double>(w.activity()));
    case PhaseDetector::kChannelAbortRate:
      return w.abort_rate();
    case PhaseDetector::kChannelWastedShare:
      return w.wasted_share();
  }
  return 0.0;
}

}  // namespace

void PhaseDetector::reset_baseline() {
  for (Channel& c : ch_) c = Channel{};
  seen_ = 0;
}

std::optional<PhaseEvent> PhaseDetector::update(const MetricsWindow& w) {
  uint32_t idx = windows_++;
  if (cooldown_ > 0) {
    // Transition windows are a mix of both phases; keep them out of the new
    // baseline entirely.
    --cooldown_;
    return std::nullopt;
  }
  ++seen_;

  std::optional<PhaseEvent> fired;
  for (int i = 0; i < kChannels; ++i) {
    Channel& c = ch_[i];
    double x = channel_value(i, w);
    if (!c.primed) {
      c.primed = true;
      c.mean = x;
      continue;
    }
    double resid = x - c.mean;
    double scale = std::max(c.dev, kScaleFloor[i]);
    double z = resid / scale;
    if (seen_ > kWarmupWindows && !fired) {
      c.up = std::max(0.0, c.up + z - kCusumK);
      c.down = std::max(0.0, c.down - z - kCusumK);
      if (c.up > kCusumH || c.down > kCusumH) {
        PhaseEvent e;
        e.window = idx;
        e.channel = i;
        e.direction = c.up > kCusumH ? 1 : -1;
        e.score = std::max(c.up, c.down);
        fired = e;
        continue;  // baseline resets below; no point updating this EWMA
      }
    }
    c.mean += kEwmaAlpha * resid;
    c.dev = (1.0 - kEwmaAlpha) * c.dev + kEwmaAlpha * std::fabs(resid);
  }

  if (fired) {
    reset_baseline();
    cooldown_ = kCooldownWindows;
  }
  return fired;
}

// ---- The window projection of the fold ----

size_t MetricsData::snapshots() const {
  size_t n = 0;
  for (const MetricsWindow& w : windows) n += w.end.has_value();
  return n;
}

MetricsData TraceSink::metrics_data(sim::Cycles wall) const {
  MetricsData d;
  d.window_cycles = window_cycles_;
  d.windows = windows_;
  d.lock_names = lock_names_;
  // Pad the copy to cover [0, wall) so trailing idle time is visible.
  if (wall > 0) {
    size_t last =
        window_cycles_ ? static_cast<size_t>((wall - 1) / window_cycles_) : 0;
    for (size_t i = d.windows.size(); i <= last; ++i) {
      d.windows.emplace_back().start =
          static_cast<sim::Cycles>(i) * window_cycles_;
    }
  }

  // Phase pass: a fresh detector streamed over the exact window series.
  // The final window is excluded when it is partial (it covers less
  // simulated time than the others, so its counts dip for length reasons,
  // not workload reasons).
  PhaseDetector det;
  size_t n = d.windows.size();
  if (n && wall > 0 && d.windows[n - 1].start + window_cycles_ > wall) {
    --n;
  }
  for (size_t i = 0; i < n; ++i) {
    std::optional<PhaseEvent> e = det.update(d.windows[i]);
    if (e) {
      e->t = d.windows[i].start;
      d.phases.push_back(*e);
    }
  }
  return d;
}

// ---- Exporters ----

namespace {

std::string lock_label(const MetricsData& m, uint32_t lock) {
  auto it = m.lock_names.find(lock);
  if (it != m.lock_names.end()) return it->second;
  return "lock#" + std::to_string(lock);
}

// One OpenMetrics family: emits the TYPE header, then one sample per window
// of every capture (captures are already label-sorted).
template <typename Fn>
void emit_family(std::ostream& os, const std::vector<Capture>& captures,
                 const char* name, const char* help, Fn&& per_window) {
  os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " gauge\n";
  for (const Capture& c : captures) {
    if (!c.metrics) continue;
    const MetricsData& m = *c.metrics;
    for (size_t i = 0; i < m.windows.size(); ++i) {
      per_window(os, c, m, m.windows[i], i);
    }
  }
}

void sample_head(std::ostream& os, const char* name, const Capture& c,
                 size_t w) {
  os << name << "{cell=\"" << c.label << "\",w=\"" << w << "\"}";
}

}  // namespace

void write_openmetrics(std::ostream& os,
                       const std::vector<Capture>& captures) {
  // Run-level series parameters first, then the window families.
  os << "# HELP tsxlab_window_cycles Window length in simulated cycles\n";
  os << "# TYPE tsxlab_window_cycles gauge\n";
  for (const Capture& c : captures) {
    if (!c.metrics) continue;
    os << "tsxlab_window_cycles{cell=\"" << c.label << "\"} "
       << c.metrics->window_cycles << "\n";
  }

  struct CounterFamily {
    const char* name;
    const char* help;
    uint64_t (*get)(const MetricsWindow&);
  };
  static const CounterFamily kCounters[] = {
      {"tsxlab_window_start_cycles", "Window start, simulated cycles",
       [](const MetricsWindow& w) { return static_cast<uint64_t>(w.start); }},
      {"tsxlab_window_hw_starts", "Hardware transaction attempts begun",
       [](const MetricsWindow& w) { return w.hw_starts; }},
      {"tsxlab_window_hw_commits", "Hardware transaction commits",
       [](const MetricsWindow& w) { return w.hw_commits; }},
      {"tsxlab_window_hw_aborts", "Hardware transaction aborts",
       [](const MetricsWindow& w) { return w.hw_aborts; }},
      {"tsxlab_window_stm_starts", "Software transaction attempts begun",
       [](const MetricsWindow& w) { return w.stm_starts; }},
      {"tsxlab_window_stm_commits", "Software transaction commits",
       [](const MetricsWindow& w) { return w.stm_commits; }},
      {"tsxlab_window_stm_aborts", "Software transaction aborts",
       [](const MetricsWindow& w) { return w.stm_aborts; }},
      {"tsxlab_window_fallbacks", "Retry-policy serial fallbacks",
       [](const MetricsWindow& w) { return w.fallbacks; }},
      {"tsxlab_window_lock_sections", "Lock-backend critical sections",
       [](const MetricsWindow& w) { return w.lock_sections; }},
      {"tsxlab_window_committed_cycles", "Cycles in committed attempts",
       [](const MetricsWindow& w) {
         return static_cast<uint64_t>(w.committed_cycles);
       }},
      {"tsxlab_window_wasted_cycles", "Cycles in aborted attempts",
       [](const MetricsWindow& w) {
         return static_cast<uint64_t>(w.wasted_cycles);
       }},
      {"tsxlab_window_lock_section_cycles",
       "Cycles inside lock-backend critical sections",
       [](const MetricsWindow& w) {
         return static_cast<uint64_t>(w.lock_section_cycles);
       }},
  };
  for (const CounterFamily& fam : kCounters) {
    emit_family(os, captures, fam.name, fam.help,
                [&fam](std::ostream& o, const Capture& c, const MetricsData&,
                       const MetricsWindow& w, size_t i) {
                  sample_head(o, fam.name, c, i);
                  o << " " << fam.get(w) << "\n";
                });
  }

  emit_family(os, captures, "tsxlab_window_aborts_misc",
              "Hardware aborts by RTM_RETIRED.ABORTED_MISC bucket",
              [](std::ostream& o, const Capture& c, const MetricsData&,
                 const MetricsWindow& w, size_t i) {
                for (size_t b = 0; b < w.aborts_by_misc.size(); ++b) {
                  o << "tsxlab_window_aborts_misc{cell=\"" << c.label
                    << "\",w=\"" << i << "\",bucket=\"" << b + 1 << "\"} "
                    << w.aborts_by_misc[b] << "\n";
                }
              });

  struct RatioFamily {
    const char* name;
    const char* help;
    double (*get)(const MetricsWindow&);
  };
  static const RatioFamily kRatios[] = {
      {"tsxlab_window_abort_rate", "Aborts per attempt",
       [](const MetricsWindow& w) { return w.abort_rate(); }},
      {"tsxlab_window_conflict_share", "Conflict aborts / all aborts",
       [](const MetricsWindow& w) { return w.conflict_share(); }},
      {"tsxlab_window_capacity_share", "Capacity aborts / all aborts",
       [](const MetricsWindow& w) { return w.capacity_share(); }},
      {"tsxlab_window_wasted_share",
       "Wasted cycles / (committed + wasted) cycles",
       [](const MetricsWindow& w) { return w.wasted_share(); }},
      {"tsxlab_window_fallback_rate", "Fallbacks per attempt",
       [](const MetricsWindow& w) { return w.fallback_rate(); }},
  };
  for (const RatioFamily& fam : kRatios) {
    emit_family(os, captures, fam.name, fam.help,
                [&fam](std::ostream& o, const Capture& c, const MetricsData&,
                       const MetricsWindow& w, size_t i) {
                  sample_head(o, fam.name, c, i);
                  o << " " << util::json_fixed(fam.get(w), 6) << "\n";
                });
  }

  emit_family(os, captures, "tsxlab_window_elided_share",
              "Elided acquisitions / acquisitions, per elide lock",
              [](std::ostream& o, const Capture& c, const MetricsData& m,
                 const MetricsWindow& w, size_t i) {
                for (const auto& [lock, e] : w.elide) {
                  double share =
                      e.acquisitions
                          ? static_cast<double>(e.elided) /
                                static_cast<double>(e.acquisitions)
                          : 0.0;
                  o << "tsxlab_window_elided_share{cell=\"" << c.label
                    << "\",w=\"" << i << "\",lock=\"" << lock_label(m, lock)
                    << "\"} " << util::json_fixed(share, 6) << "\n";
                }
              });

  os << "# HELP tsxlab_phase_boundary Detected phase boundary (value: "
        "boundary time, simulated cycles)\n";
  os << "# TYPE tsxlab_phase_boundary gauge\n";
  for (const Capture& c : captures) {
    if (!c.metrics) continue;
    for (const PhaseEvent& e : c.metrics->phases) {
      os << "tsxlab_phase_boundary{cell=\"" << c.label << "\",w=\""
         << e.window << "\",channel=\"" << e.channel << "\",direction=\""
         << (e.direction > 0 ? "rise" : "fall") << "\"} " << e.t << "\n";
    }
  }
  os << "# EOF\n";
}

void write_timeseries_csv(std::ostream& os,
                          const std::vector<Capture>& captures) {
  os << "label,t_cycles,ops,loads,stores,l1_hits,l2_hits,l3_hits,"
        "mem_accesses,tx_starts,tx_commits,tx_aborts,"
        "tx_aborts_misc1,tx_aborts_misc2,tx_aborts_misc3,tx_aborts_misc4,"
        "tx_aborts_misc5,fallbacks,committed_tx_cycles,wasted_tx_cycles\n";
  for (const Capture& c : captures) {
    if (!c.metrics) continue;
    for (const MetricsWindow& w : c.metrics->windows) {
      if (!w.end) continue;
      const sim::MachineStats& m = w.end->machine;
      os << util::Table::csv_escape(c.label) << ","
         << w.start + c.metrics->window_cycles << "," << m.ops << ","
         << m.mem.loads << "," << m.mem.stores << "," << m.mem.l1_hits << ","
         << m.mem.l2_hits << "," << m.mem.l3_hits << "," << m.mem.mem_accesses
         << "," << m.tx.started << "," << m.tx.committed << ","
         << m.tx.aborted();
      for (uint64_t n : m.tx.aborts_by_misc) os << "," << n;
      os << "," << w.end->fallbacks << "," << w.end->committed_cycles << ","
         << w.end->wasted_cycles << "\n";
    }
  }
}

void write_flamegraph(std::ostream& os, const std::vector<Capture>& captures) {
  for (const Capture& c : captures) {
    if (!c.metrics) continue;
    for (const auto& [victim, agg] : c.sites) {
      for (const auto& [key, cycles] : agg.flame) {
        if (!cycles) continue;  // zero-weight stacks only add noise
        os << c.label << ";" << site_name(c, victim) << ";";
        if (key & kFlameAttackerBit) {
          os << site_name(c, static_cast<uint32_t>(key & 0xffffffffull));
        } else {
          os << "["
             << sim::abort_reason_name(static_cast<sim::AbortReason>(key))
             << "]";
        }
        os << " " << cycles << "\n";
      }
    }
  }
}

}  // namespace tsx::obs
