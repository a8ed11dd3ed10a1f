#pragma once
// RAPL-like package-energy model.
//
// The paper reads chip energy through RAPL and validates it against ATX
// input measurements. RAPL package energy decomposes into (a) dynamic energy
// proportional to retired work and cache/memory events and (b) static +
// uncore power integrated over wall-clock time. We account exactly those
// terms from simulator event counts. Constants are calibrated to a desktop
// Haswell (84 W TDP, ~3.4 GHz): a fully-active 4-core run draws ~55-65 W,
// package idle ~14 W. EXPERIMENTS.md documents the calibration.

#include <cstdint>

#include "sim/types.h"

namespace tsx::sim {

struct EnergyParams {
  // Dynamic energy per event, in nanojoules.
  double nj_per_op = 0.45;        // per retired instruction-equivalent
  double nj_per_l1 = 0.12;        // per L1 access
  double nj_per_l2 = 0.65;        // per L2 access
  double nj_per_l3 = 3.2;         // per L3 access
  double nj_per_mem = 18.0;       // per DRAM access
  double nj_per_coherence = 1.1;  // per invalidation/forward message
  double nj_per_writeback = 2.4;  // per dirty writeback

  // Power, in watts.
  double w_core_active = 7.5;  // per core with >= 1 context executing
  double w_package_idle = 14.0;  // uncore + static, paid for the whole run
};

struct EnergyBreakdown {
  double dynamic_j = 0;
  double core_active_j = 0;
  double package_idle_j = 0;

  double total_j() const { return dynamic_j + core_active_j + package_idle_j; }
};

// An EnergyBreakdown split along the committed-vs-wasted axis. The dynamic +
// core-active energy is apportioned by cycle share, with non_tx_j as the
// remainder so the four terms sum to the breakdown's total exactly; the
// package-idle term is static and unattributable. core::RunReport derives
// one from executor attempt cycles, obs::PmuData from the event fold.
struct EnergySplit {
  double committed_j = 0;
  double wasted_j = 0;  // the paper's "energy spent in aborted work"
  double non_tx_j = 0;
  double static_j = 0;  // package idle / uncore

  double total_j() const { return committed_j + wasted_j + non_tx_j + static_j; }
  // Share of attributable (non-static) energy thrown away in aborted work.
  double wasted_share() const {
    double active = committed_j + wasted_j + non_tx_j;
    return active > 0 ? wasted_j / active : 0.0;
  }
};

class EnergyModel {
 public:
  explicit EnergyModel(const EnergyParams& p, double freq_ghz)
      : p_(p), freq_hz_(freq_ghz * 1e9) {}

  // `ops` counts retired simulated operations; cache counters come from the
  // memory system; `core_busy_cycles` sums, over cores, the cycles during
  // which the core had at least one active context; `wall_cycles` is the end
  // time of the run.
  EnergyBreakdown compute(uint64_t ops, uint64_t l1, uint64_t l2, uint64_t l3,
                          uint64_t mem, uint64_t coherence, uint64_t writebacks,
                          double core_busy_cycles, Cycles wall_cycles) const;

  double seconds(Cycles c) const { return static_cast<double>(c) / freq_hz_; }

 private:
  EnergyParams p_;
  double freq_hz_;
};

}  // namespace tsx::sim
