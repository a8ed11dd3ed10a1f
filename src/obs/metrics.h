#pragma once
// The window series of TraceSink's event fold, the online phase detector
// over it, and the two exporters that read it.
//
// The fold (trace_sink.h) keeps one record per fixed simulated-time window
// of `window_cycles` and folds every begin/commit/abort/retry/elide event
// into the window containing its timestamp (windows[t / window_cycles]). So
// for every counter the sum of all window deltas equals the whole-run total
// by construction, regardless of the slight cross-context reordering the
// scheduler's per-context clocks produce; PmuData's software-attempt and
// fallback totals are exactly those sums. Cycle deltas (committed/wasted)
// are attributed to the window containing the attempt's *closing* event,
// like the per-context cycle identity. A run without a window is one
// whole-run window.
//
// Each window also carries the machine's cumulative counters at its end
// boundary (WindowEnd), read when simulated time first crossed it: the rows
// of --timeseries and the trace's counter tracks.
//
// All of this is host-side bookkeeping on simulated timestamps: it performs
// no simulated machine operation and never perturbs simulated results.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/pmu.h"
#include "sim/types.h"

namespace tsx::obs {

struct Capture;  // registry.h (which includes this header)

// ---- Window aggregates ----

// Cumulative counters when simulated time first crossed a window's end.
// Unlike the window's deltas, which bin each event by its own timestamp, a
// snapshot sees every context's progress at one moment of the run.
struct WindowEnd {
  sim::MachineStats machine;
  uint64_t fallbacks = 0;            // retry-policy fallback decisions
  sim::Cycles committed_cycles = 0;  // per-context attribution, summed
  sim::Cycles wasted_cycles = 0;
};

// One fixed simulated-time window [start, start + window_cycles). All
// counters are deltas within the window, not cumulative.
struct MetricsWindow {
  sim::Cycles start = 0;

  // Hardware transaction lifecycle (machine forwarders).
  uint64_t hw_starts = 0;
  uint64_t hw_commits = 0;
  uint64_t hw_aborts = 0;
  std::array<uint64_t, static_cast<size_t>(sim::MiscBucket::kCount)>
      aborts_by_misc{};
  std::array<uint64_t, static_cast<size_t>(sim::AbortReason::kCount)>
      aborts_by_reason{};

  // Software transactions (STM backends, hybrid fallback).
  uint64_t stm_starts = 0;
  uint64_t stm_commits = 0;
  uint64_t stm_aborts = 0;

  uint64_t fallbacks = 0;  // retry-policy serial-fallback decisions

  // Lock-backend critical sections (see TraceSink::lock_section), so
  // kLock/kCas runs produce a per-window activity signal.
  uint64_t lock_sections = 0;
  sim::Cycles lock_section_cycles = 0;

  // Attempt-window cycle deltas (closing-event attribution).
  sim::Cycles committed_cycles = 0;
  sim::Cycles wasted_cycles = 0;

  // Per-lock elision deltas, keyed by lock id (sorted map iteration keeps
  // every export deterministic).
  std::map<uint32_t, ElideCounters> elide;

  // The boundary snapshot; absent for a final window the run did not cross.
  std::optional<WindowEnd> end;

  // ---- Derived signals (the phase detector's inputs) ----
  uint64_t attempts() const { return hw_starts + stm_starts; }
  uint64_t commits() const { return hw_commits + stm_commits; }
  uint64_t aborts() const { return hw_aborts + stm_aborts; }
  // Completed units of useful work: the activity signal that exists for
  // every backend (RTM/STM/hybrid commits, lock sections).
  uint64_t activity() const { return commits() + lock_sections; }
  double abort_rate() const {
    uint64_t a = attempts();
    return a ? static_cast<double>(aborts()) / static_cast<double>(a) : 0.0;
  }
  double conflict_share() const;   // conflict aborts / all aborts
  double capacity_share() const;   // capacity aborts / all aborts
  double wasted_share() const {    // wasted / (committed + wasted)
    sim::Cycles tx = committed_cycles + wasted_cycles;
    return tx ? static_cast<double>(wasted_cycles) / static_cast<double>(tx)
              : 0.0;
  }
  double fallback_rate() const {
    uint64_t a = attempts();
    return a ? static_cast<double>(fallbacks) / static_cast<double>(a) : 0.0;
  }
};

// ---- Phase detection ----

// One detected phase boundary: the detector's evidence crossed its decision
// threshold at window `window`; `t` is that window's start (the boundary is
// located to within one window by construction).
struct PhaseEvent {
  uint32_t window = 0;
  sim::Cycles t = 0;
  int channel = 0;    // PhaseDetector channel that fired (kChannel* below)
  int direction = 0;  // +1 signal rose, -1 signal fell
  double score = 0;   // CUSUM statistic at the decision point
};

struct MetricsConfig {
  // Window length in simulated cycles; 0 folds the run into one window
  // and leaves the series unexported.
  sim::Cycles window_cycles = 0;
};

// Online two-sided CUSUM over EWMA-standardized window signals. Streaming
// and causal: update() sees one window at a time and reports whether that
// window crossed the decision threshold. Channels:
//   0  activity  log1p(commits + lock sections)  — throughput shifts
//   1  aborts    aborts / attempts              — contention shifts
//   2  wasted    wasted / (committed + wasted)  — speculation-cost shifts
class PhaseDetector {
 public:
  static constexpr int kChannelActivity = 0;
  static constexpr int kChannelAbortRate = 1;
  static constexpr int kChannelWastedShare = 2;
  static constexpr int kChannels = 3;

  // Tuning (DESIGN.md §8): windows used to learn a baseline, the EWMA
  // smoothing of its mean and deviation, the CUSUM slack and decision
  // threshold in deviation units, and the windows skipped after a boundary
  // before re-learning.
  static constexpr uint32_t kWarmupWindows = 3;
  static constexpr double kEwmaAlpha = 0.25;
  static constexpr double kCusumK = 0.5;
  static constexpr double kCusumH = 4.0;
  static constexpr uint32_t kCooldownWindows = 2;

  // Feeds the next window; returns the boundary event (positioned at this
  // window) if the evidence crossed the threshold. After a boundary the
  // detector re-learns its baseline from the new phase.
  std::optional<PhaseEvent> update(const MetricsWindow& w);

 private:
  struct Channel {
    bool primed = false;
    double mean = 0;
    double dev = 0;  // EWMA of |residual| (robust scale)
    double up = 0;   // one-sided CUSUM statistics
    double down = 0;
  };

  void reset_baseline();

  std::array<Channel, kChannels> ch_{};
  uint32_t seen_ = 0;      // windows since the last baseline reset
  uint32_t windows_ = 0;   // total windows fed
  uint32_t cooldown_ = 0;  // pending re-learn windows
};

// ---- Finalized result (carried inside a registry Capture) ----

struct MetricsData {
  sim::Cycles window_cycles = 0;
  std::vector<MetricsWindow> windows;
  std::vector<PhaseEvent> phases;  // detector run over the exact series
  std::map<uint32_t, std::string> lock_names;

  // Windows carrying a boundary snapshot (every window the run crossed).
  size_t snapshots() const;
};

// ---- Exporters (captures arrive label-sorted from Registry::drain, so
// every output is byte-identical across --jobs values) ----

// OpenMetrics / Prometheus text exposition of every capture's final window
// series: one sample per window per metric family, labelled
// {cell="<label>",w="<index>"} (plus lock="<name>" for elision families),
// ending with "# EOF".
void write_openmetrics(std::ostream& os, const std::vector<Capture>& captures);

// CSV of the boundary snapshots: one row per crossed window boundary per
// capture, keyed by the capture's task label, in simulated-time order. All
// values are cumulative counters at the window's end (diff consecutive
// rows for rates).
void write_timeseries_csv(std::ostream& os,
                          const std::vector<Capture>& captures);

// Collapsed-stack flame profile ("cell;victim;attacker-or-reason cycles"
// lines) of every capture with a window series, weighted by wasted cycles:
// the per-site records' flame edges. Feed to flamegraph.pl or speedscope.
void write_flamegraph(std::ostream& os, const std::vector<Capture>& captures);

}  // namespace tsx::obs
