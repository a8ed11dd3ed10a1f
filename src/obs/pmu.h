#pragma once
// Simulated PMU: the paper's measurement vocabulary on top of the
// simulator's raw counters.
//
// The paper reads Haswell TSX through libpfm4 perf events
// (RTM_RETIRED.START/COMMIT/ABORTED, the ABORTED_MISC1-5 buckets,
// TX_MEM.ABORT_*) plus RAPL energy windows. PmuData gives tsxlab the same
// surface. TraceSink::pmu_data (defined in pmu.cpp) builds it from the
// sink's event fold: every per-hardware-thread cycle is attributed into
// committed-tx / wasted-tx / non-tx / idle with an enforced identity (the
// four buckets tile [0, wall] exactly), and the committed-vs-wasted energy
// split the paper's "energy thrown away in aborted work" analysis needs is
// derived from it.
//
// The fold aggregates at emission time and never replays the (lossy) event
// ring, so the counters are exact regardless of ring capacity. All inputs
// are simulated cycles and deterministic counters, so every derived report
// is byte-identical across harness --jobs values.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "sim/energy_model.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace tsx::obs {

struct Capture;  // registry.h (which includes this header)

// Per-hardware-thread cycle attribution. The identity
//   committed + wasted + non_tx + idle == wall
// holds exactly for every context: committed/wasted sum attempt windows
// (begin..commit / begin..abort timestamps on the context's own clock),
// non_tx is the remainder of the context's finish time, idle is the tail
// until the run's wall clock. Attribution is per hardware thread (not per
// core): two hyperthreads of one core each get their own identity, so the
// buckets are well-defined even when SMT overlaps their execution.
struct PmuCtxSplit {
  sim::Cycles committed = 0;  // inside attempts that committed
  sim::Cycles wasted = 0;     // inside attempts that aborted (discarded work)
  sim::Cycles non_tx = 0;     // executing outside any attempt window
  sim::Cycles idle = 0;       // finished, waiting for the run's last context
  sim::Cycles finish = 0;     // the context's own finish time
  sim::Cycles busy = 0;       // scheduler busy cycles (perf's unhalted clock)
};

// Whole-run sums of the per-context buckets.
struct TxCycleSplit {
  sim::Cycles committed = 0;
  sim::Cycles wasted = 0;
  sim::Cycles non_tx = 0;
  sim::Cycles idle = 0;

  sim::Cycles total() const { return committed + wasted + non_tx + idle; }
};

// One named counter of the perf-stat report: the simulator counter's value
// under the Haswell perf event name the paper measured (DESIGN.md carries
// the full mapping table).
struct PerfCounter {
  std::string name;     // perf-style short name, e.g. "tx-abort-misc2"
  std::string haswell;  // real event, e.g. "RTM_RETIRED.ABORTED_MISC2"
  uint64_t value = 0;
};

// How one elide-lock acquisition protocol completed (src/elide reports one
// event per completed acquisition, with attempt/cycle deltas).
enum class ElideAcqKind : uint8_t {
  kElided = 0,    // section committed speculatively
  kFallback = 1,  // attempt budget exhausted; section ran under the lock
  kLocked = 2,    // explicit non-speculative hold (lock()/locked_section)
};

// Elision counters of one lock, the txlock-style stats table: per window in
// MetricsWindow::elide, per run in PmuData::elide. `attempts` counts
// speculative tries including lock-busy bails; `cycles_wasted` sums attempt
// windows that did not commit (the self-stop heuristic's input).
struct ElideCounters {
  uint64_t acquisitions = 0;
  uint64_t attempts = 0;
  uint64_t elided = 0;
  uint64_t fallbacks = 0;
  uint64_t lock_acquires = 0;
  uint64_t self_stops = 0;
  sim::Cycles cycles_elided = 0;
  sim::Cycles cycles_wasted = 0;

  void add(const ElideCounters& o) {
    acquisitions += o.acquisitions;
    attempts += o.attempts;
    elided += o.elided;
    fallbacks += o.fallbacks;
    lock_acquires += o.lock_acquires;
    self_stops += o.self_stops;
    cycles_elided += o.cycles_elided;
    cycles_wasted += o.cycles_wasted;
  }
};

// One lock's whole-run counters under its name.
struct ElideLockCounters : ElideCounters {
  uint32_t lock = 0;
  std::string name;
};

// Simulated-heap counters for the perf-stat "heap" block: the allocator's
// whole-run stats under the placement policy that produced them (mem::
// PlacementPolicy — the malloc-placement axis). Filled by TxRuntime when
// the capture is built; not an event-derived aggregate.
struct HeapPmuCounters {
  bool present = false;
  std::string policy;  // placement_policy_name() of the run's heap
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t refills = 0;
  uint64_t bytes_live = 0;
  uint64_t bytes_peak = 0;
  uint64_t bytes_padding = 0;
  std::vector<uint64_t> set_allocs;  // placements per L1 set index
};

// Immutable PMU result for one run, carried inside a registry Capture.
struct PmuData {
  uint32_t threads = 0;
  double freq_ghz = 0;
  sim::Cycles wall = 0;
  sim::MachineStats machine;  // final whole-run counters

  // Software-transaction attempt counters (STM backends and the hybrid's
  // fallback; hardware attempts are machine.tx): sums of the window series.
  uint64_t stm_starts = 0;
  uint64_t stm_commits = 0;
  uint64_t stm_aborts = 0;
  uint64_t fallbacks = 0;  // retry-policy fallback decisions

  std::vector<PmuCtxSplit> ctx;  // one per hardware thread
  TxCycleSplit split;
  sim::EnergyBreakdown energy;  // whole-run (not measured-region) energy
  sim::EnergySplit energy_split;  // by the per-context cycle split

  Log2Histogram tx_duration;    // committed attempt durations, cycles
  Log2Histogram abort_latency;  // aborted attempt durations, cycles
  Log2Histogram retries;        // aborted attempts preceding each commit

  std::vector<PerfCounter> counters;  // the perf-stat event list

  // Per-lock elision statistics, sorted by lock id; empty when the run used
  // no elide locks.
  std::vector<ElideLockCounters> elide;

  // Simulated-heap placement counters (present for every traced TxRuntime).
  HeapPmuCounters heap;

  // false if attempt events were mispaired or an attempt window exceeded
  // its context's clock (would make non_tx negative). Never expected; the
  // tier-1 identity tests assert it.
  bool identity_ok = true;
  uint64_t mismatched = 0;  // commit/abort events without an open begin
};

// perf-stat-style report, one block per capture (captures arrive sorted by
// label from Registry::drain, so output is byte-identical across --jobs).
// Captures without PMU data are skipped.
void write_perf_stat(std::ostream& os, const std::vector<Capture>& captures);

}  // namespace tsx::obs
