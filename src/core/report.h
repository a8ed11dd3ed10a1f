#pragma once
// Per-run measurement report: time, energy, abort statistics. Benches
// compare reports across backends/thread counts to build the paper's
// figures (speedup and energy efficiency are ratios of reports).

#include <algorithm>

#include "htm/rtm.h"
#include "mem/sim_heap.h"
#include "sim/energy_model.h"
#include "sim/stats.h"
#include "stm/common.h"

namespace tsx::core {

struct RunReport {
  sim::Cycles wall_cycles = 0;
  double seconds = 0;
  sim::EnergyBreakdown energy;
  sim::MachineStats machine;  // deltas over the measured region
  htm::RtmStats rtm;          // hardware attempts: RTM, HLE and Hybrid
  stm::StmStats stm;          // zero unless an STM backend
  // Simulated-heap counters (whole run, not window-diffed: allocator state
  // is cumulative) and the placement policy that produced them.
  mem::HeapStats heap;
  mem::PlacementPolicy heap_policy = mem::PlacementPolicy::kSizeClass;
  // Per-transaction-site RTM statistics (whole run, not window-diffed);
  // used for the paper's TID-level tables (IV, V).
  std::vector<std::pair<uint32_t, htm::RtmStats>> rtm_sites;

  htm::RtmStats site_stats(uint32_t site) const {
    for (const auto& [id, st] : rtm_sites) {
      if (id == site) return st;
    }
    return htm::RtmStats{};
  }

  double joules() const { return energy.total_j(); }

  // Committed-vs-wasted energy attribution over the measured region, from
  // executor attempt-cycle counters (works without obs tracing). Committed
  // work includes the hardware executors' fallback sections (they perform
  // useful, retained work, just non-speculatively); wasted is cycles inside
  // attempts that aborted, hardware or software. The apportioning
  // denominator is the larger of core-busy and attempt cycles.
  sim::EnergySplit energy_split() const {
    sim::EnergySplit s;
    s.static_j = energy.package_idle_j;
    double active_j = energy.total_j() - energy.package_idle_j;
    double committed = static_cast<double>(rtm.cycles_committed) +
                       static_cast<double>(rtm.cycles_fallback) +
                       static_cast<double>(stm.cycles_committed);
    double wasted = static_cast<double>(rtm.cycles_aborted) +
                    static_cast<double>(stm.cycles_aborted);
    double denom = std::max(machine.core_busy_cycles, committed + wasted);
    if (denom > 0 && active_j > 0) {
      s.committed_j = active_j * (committed / denom);
      s.wasted_j = active_j * (wasted / denom);
      s.non_tx_j = active_j - s.committed_j - s.wasted_j;
    } else {
      s.non_tx_j = active_j;
    }
    return s;
  }

  // Abort rate of whichever TM system ran (0 for SEQ/Lock).
  double abort_rate(bool is_rtm) const {
    return is_rtm ? rtm.abort_rate() : stm.abort_rate();
  }
};

inline double speedup(const RunReport& baseline, const RunReport& run) {
  return static_cast<double>(baseline.wall_cycles) /
         static_cast<double>(run.wall_cycles);
}

// "Energy efficiency" in the paper's figures: baseline energy / run energy
// (> 1 means the run spends less energy than the sequential baseline).
inline double energy_efficiency(const RunReport& baseline, const RunReport& run) {
  return baseline.joules() / run.joules();
}

}  // namespace tsx::core
