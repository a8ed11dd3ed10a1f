#pragma once
// TraceSink: the one consumer of the obs seam. The machine's ObsHooks, the
// executors and the elide locks report every attempt begin/commit/abort,
// retry decision, lock section and elide acquisition here, and the sink
// folds each event into:
//   * a bounded ring of typed trace events (the newest `capacity` are kept;
//     older ones are overwritten and counted in dropped());
//   * one record per context: its current call site, its open attempt, its
//     committed and wasted cycles and its abort streak;
//   * one record per call site: the abort-attribution counters plus the
//     wasted-cycle edges of the flame profile;
//   * one record per fixed simulated-time window (metrics.h), or a single
//     whole-run window when the run has no window length.
// PmuData (pmu_data, in pmu.cpp) and MetricsData (metrics_data, in
// metrics.cpp) are built from these records at the end of the run. Every
// record is updated at emission time and never from the lossy ring, so all
// of them stay exact after the ring wraps.
//
// All emission is host-side work: pushing an event performs no simulated
// machine operation, so an installed sink never perturbs simulated timing.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "sim/energy_model.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "util/arena.h"

namespace tsx::obs {

// Second frame of the wasted-cycle flame profile: the attacker's call site
// for attributed conflicts, the abort reason otherwise. Encoded as one
// ordered key so the per-site maps stay sorted and cheap.
constexpr uint64_t kFlameAttackerBit = uint64_t{1} << 32;
inline uint64_t flame_attacker_key(uint32_t site) {
  return kFlameAttackerBit | site;
}
inline uint64_t flame_reason_key(sim::AbortReason r) {
  return static_cast<uint64_t>(r);
}

// The per-site record: exact attribution, independent of ring capacity.
// The abort report and the flame profile are its two views.
struct SiteAgg {
  uint64_t attempts = 0;   // hardware or STM attempts started
  uint64_t commits = 0;
  uint64_t fallbacks = 0;  // serial-fallback decisions at this site
  std::array<uint64_t, static_cast<size_t>(sim::AbortReason::kCount)>
      aborts_by_reason{};
  std::map<uint64_t, uint64_t> conflict_lines;  // line -> abort count
  std::map<uint32_t, uint64_t> attacker_sites;  // attacker site -> abort count
  // Flame edge key (flame_attacker_key / flame_reason_key) -> wasted cycles
  // of this site's aborted attempts. Every abort adds its edge, even with
  // zero cycles.
  std::map<uint64_t, uint64_t> flame;

  uint64_t aborts() const {
    uint64_t s = 0;
    for (uint64_t a : aborts_by_reason) s += a;
    return s;
  }
};

class TraceSink {
 public:
  // `window_cycles` is the window length of the series; 0 folds the whole
  // run into one window.
  explicit TraceSink(size_t capacity = 1 << 16, sim::Cycles window_cycles = 0);
  // Context records point into sites_.
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // ---- Engine-side ----
  // Declares `site` as ctx's current static call site (host-side, no
  // event). Engines call this at the top of every execute().
  void set_site(sim::CtxId ctx, uint32_t site);
  // Records a retry-policy decision after a failed attempt.
  void retry_decision(sim::CtxId ctx, sim::Cycles t, bool fallback,
                      sim::Cycles backoff);
  // One completed lock-backend critical section [t0, t1). Window-only (no
  // ring event, no PMU counter): it gives kLock/kCas runs a per-window
  // activity signal.
  void lock_section(sim::CtxId ctx, sim::Cycles t0, sim::Cycles t1);

  // ---- Machine ObsHooks forwarders (hardware transactions) ----
  void tx_begin(sim::CtxId ctx, sim::Cycles t);
  void tx_commit(sim::CtxId ctx, sim::Cycles t);
  void tx_abort(sim::CtxId victim, sim::Cycles t, sim::AbortReason reason,
                uint64_t line, sim::CtxId attacker);
  void evict(sim::CtxId by, sim::Cycles t, int level, uint64_t line);
  // Simulated time first crossed `t`, the end of a window: snapshots the
  // machine's cumulative counters into that window (the machine's
  // on_sample_window hook, driven by the same window length).
  void window_boundary(sim::Cycles t, const sim::MachineStats& stats);

  // ---- STM attempt lifecycle (software transactions bypass the machine's
  // hardware-tx state, so the STM executor reports them directly) ----
  void stm_begin(sim::CtxId ctx, sim::Cycles t, uint32_t site);
  void stm_commit(sim::CtxId ctx, sim::Cycles t);
  void stm_abort(sim::CtxId ctx, sim::Cycles t, uint64_t line,
                 sim::CtxId attacker);

  // ---- Elide-lock reporting (src/elide; window and PMU counters only, no
  // ring events) ----
  void elide_lock_name(uint32_t lock, const std::string& name);
  void elide_acquire(uint32_t lock, sim::Cycles t, ElideAcqKind kind,
                     uint64_t attempts, sim::Cycles cycles_elided,
                     sim::Cycles cycles_wasted, bool self_stopped);

  // ---- Live subscription (the AdaptivePolicy seam) ----
  // Called once per sealed window, in window order, with the phase boundary
  // that window triggered (if any). A window seals when the event stream's
  // high-water mark passes the *next* window's end, leaving one window of
  // slack for the scheduler's bounded cross-context clock skew; the rest
  // seal at metrics_data(). Live sealing is a low-latency view of the same
  // windows metrics_data() reports.
  using WindowCallback = std::function<void(
      const MetricsWindow&, const std::optional<PhaseEvent>&)>;
  void subscribe(WindowCallback cb) { subscribers_.push_back(std::move(cb)); }

  // ---- Results ----
  // Closes the PMU books (pmu.cpp): per-context identity, totals from the
  // window series, energy split, the perf-stat counter list. `ctx_finish`
  // and `ctx_busy` are per-hardware-thread clocks from the machine (one per
  // thread); `core_busy` is the energy model's per-core busy sum.
  PmuData pmu_data(const sim::MachineStats& machine, sim::Cycles wall,
                   const std::vector<sim::Cycles>& ctx_finish,
                   const std::vector<sim::Cycles>& ctx_busy, double core_busy,
                   const sim::EnergyParams& energy, double freq_ghz) const;
  // Pads the series to cover [0, wall), seals every remaining window, and
  // runs a fresh detector over the exact series (metrics.cpp). Idempotent.
  MetricsData metrics_data(sim::Cycles wall);

  // ---- Inspection / export ----
  // Events oldest -> newest (at most `capacity`).
  std::vector<Event> events() const;
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }
  // Number of events overwritten because the ring was full.
  size_t dropped() const { return dropped_; }

  const std::map<uint32_t, SiteAgg>& sites() const { return sites_; }

  // Optional human-readable site names for reports ("site#N" otherwise).
  void set_site_name(uint32_t site, std::string name);
  const std::map<uint32_t, std::string>& site_names() const {
    return site_names_;
  }

 private:
  // The per-context record, indexed by the machine's context id (below
  // sim::kMaxCtxs, which sim::Machine enforces).
  struct CtxRecord {
    uint32_t site = kNoSite;
    SiteAgg* agg = nullptr;  // &sites_[site], resolved at its first event
    bool open = false;       // an attempt is in flight
    sim::Cycles begin_t = 0;
    sim::Cycles committed = 0;  // cycles inside committed attempts
    sim::Cycles wasted = 0;     // cycles inside aborted attempts
    uint64_t abort_streak = 0;  // aborts since the last commit/fallback
  };

  void push(const Event& e);
  SiteAgg& site_agg(CtxRecord& c) {
    if (!c.agg) c.agg = &sites_[c.site];
    return *c.agg;
  }
  void begin(sim::CtxId ctx, sim::Cycles t, uint8_t flags);
  void commit(sim::CtxId ctx, sim::Cycles t, uint8_t flags);
  void abort(sim::CtxId ctx, sim::Cycles t, sim::AbortReason reason,
             uint64_t line, sim::CtxId attacker, uint8_t flags);
  // The window containing t, materialized on demand; event feeds go
  // through window(), which also seals live windows behind the stream.
  MetricsWindow& window_at(sim::Cycles t);
  MetricsWindow& window(sim::Cycles t);
  void seal_through(size_t end_index);  // seals windows [sealed_, end_index)

  size_t cap_;
  // Ring storage allocated once at full capacity from the arena (events are
  // flat PODs, never destroyed element-wise), so emission can never trigger
  // a vector reallocation mid-run.
  util::Arena arena_;
  Event* ring_;
  size_t size_ = 0;
  size_t head_ = 0;  // next write position once the ring is full
  size_t dropped_ = 0;

  std::array<CtxRecord, sim::kMaxCtxs> ctx_{};
  std::map<uint32_t, SiteAgg> sites_;
  std::map<uint32_t, std::string> site_names_;

  sim::Cycles window_cycles_;  // 0 = one whole-run window
  std::vector<MetricsWindow> windows_;
  std::map<uint32_t, std::string> lock_names_;
  uint64_t fallbacks_ = 0;   // running total, for the boundary snapshots
  uint64_t mismatched_ = 0;  // begin over an open attempt, or close of none
  Log2Histogram tx_duration_;
  Log2Histogram abort_latency_;
  Log2Histogram retries_;

  std::vector<WindowCallback> subscribers_;
  PhaseDetector live_detector_;
  size_t sealed_ = 0;  // windows [0, sealed_) already delivered live
  // The first event time that seals another window: the end of window
  // sealed_ + 1 (never, for a whole-run window).
  sim::Cycles seal_t_;
  bool finalized_ = false;
};

}  // namespace tsx::obs
