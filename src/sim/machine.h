#pragma once
// The simulated machine: contexts (hardware threads) running workload code
// on fibers, a deterministic min-time scheduler, the TSX transactional state
// machine (undo log, doom/abort delivery, status words), the OS-event model
// (timer interrupts, page faults) and run-level statistics.
//
// Threading model: the whole simulation runs on ONE host thread. Simulated
// concurrency is interleaving of fiber ops ordered by local clocks, so every
// run is deterministic for a given seed (Core Guidelines CP.2: no shared
// mutable state between host threads at all).
//
// Scheduling: a context runs until another runnable context has a lower
// (clock, id), or under sched_jitter_window a clock within the window above
// its own. The lowest (clock, id) of the others is cached as one clock
// threshold when the context is switched in (and refreshed at barrier
// release), so the per-op check is one compare. A yielding fiber calls
// pick_next() itself and hands off straight to the winner's fiber (one
// switch per yield); run() resumes a fiber only at the start and after a
// fiber finishes.
//
// All simulated work must go through Machine ops (load/store/cas/compute/…):
// each op is a scheduling point, an interrupt-delivery point, and an
// abort-delivery point.
//
// Hot path (DESIGN.md §10): each data op is split into an inline fast path
// and an out-of-line general path. The fast path handles the overwhelmingly
// common case — no access-trace hook installed (fast_ok_, recomputed when
// hooks change), no due interrupt, context not in a transaction, page
// materialized, zero live transactions machine-wide, L1 hit — and is
// op-for-op equivalent to the general path: identical stat increments in
// identical order, identical advance() arguments, identical scheduling
// points. MachineConfig::disable_fast_paths forces the general path so the
// equivalence is testable.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/backing_store.h"
#include "sim/config.h"
#include "sim/fiber.h"
#include "sim/memory_system.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace tsx::sim {

// Sentinel for "no context" in attacker attribution (self-inflicted aborts
// carry the victim's own id instead; this is only for unset fields).
inline constexpr CtxId kNoCtx = ~CtxId{0};

// Thrown out of Machine ops when the current context's hardware transaction
// has aborted. Caught by the HTM layer's attempt wrapper (never crosses a
// fiber switch during unwinding).
struct TxAborted {
  uint32_t status = 0;
  AbortReason reason = AbortReason::kNone;
  uint64_t conflict_line = ~0ull;
  // Context whose access caused the abort (the conflicting requester, or
  // the context whose fill evicted a tracked line). Self for explicit /
  // page-fault / interrupt / unsupported-insn aborts.
  CtxId attacker = kNoCtx;
};

// Observation hooks for src/check's history recorder. Every hook fires at
// the op's linearization point — after the value moved in the backing store
// and (for tx_commit) after the transaction's effects became permanent, but
// BEFORE the op's scheduling point (maybe_yield) — so the order of hook
// invocations is exactly the order in which effects hit simulated memory.
// All hooks are optional; unset hooks cost one branch per op.
struct TraceHooks {
  // One data access. `old_value` is the pre-op value of the word (equal to
  // `value` for reads), `in_tx` whether the context was inside a live
  // hardware transaction. RMW ops (cas/fetch_add/swap) fire a read followed
  // by a write; a failed CAS fires only the read.
  std::function<void(CtxId, Addr addr, Word old_value, Word value,
                     bool is_write, bool in_tx)>
      on_access;
  std::function<void(CtxId)> on_tx_begin;   // outermost tx_begin
  std::function<void(CtxId)> on_tx_commit;  // outermost tx_commit, effects final
  std::function<void(CtxId)> on_tx_abort;   // after rollback, any abort cause
};

// Observability hooks for src/obs's event tracer. A SEPARATE slot from
// TraceHooks so the check-layer recorder (which installs TraceHooks
// wholesale) and a tracing sink can coexist on one machine. All timestamps
// are the acting context's simulated clock, so emission is deterministic
// and costs the simulation nothing (hooks run host-side only).
struct ObsHooks {
  std::function<void(CtxId, Cycles)> on_tx_begin;
  std::function<void(CtxId, Cycles)> on_tx_commit;
  // victim, victim clock at rollback, precise cause, conflicting line
  // (~0 if none), attacker context (== victim for self-inflicted aborts).
  std::function<void(CtxId, Cycles, AbortReason, uint64_t, CtxId)> on_tx_abort;
  // A capacity-tracked line left its tracking structure: level 1 = L1
  // write-set eviction, 3 = L3 read-set eviction. `by` triggered the fill.
  std::function<void(CtxId, Cycles, int, uint64_t)> on_tx_evict;
  // Fired when simulated time first crosses each sample-window boundary
  // (the obs fold's window ends); receives the boundary timestamp and a
  // stats snapshot at that moment.
  std::function<void(Cycles, const MachineStats&)> on_sample_window;
};

class Machine {
 public:
  using ThreadFn = std::function<void()>;

  Machine(const MachineConfig& cfg, uint32_t num_threads);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  uint32_t num_threads() const { return num_threads_; }
  const MachineConfig& config() const { return cfg_; }
  // L1 geometry seam for set-index-aware clients (the heap's coloring
  // policies place blocks by L1 set; see mem::PlacementPolicy).
  const CacheGeometry& l1_geometry() const { return cfg_.l1; }

  // Registers the workload for context `ctx` (must be called for every
  // context exactly once before run()). The function runs on a fiber; it may
  // only interact with the simulation through this Machine.
  void set_thread(CtxId ctx, ThreadFn fn);

  // Runs the simulation to completion of all threads.
  void run();

  // ---- Ops (valid only while run() is executing the calling fiber) ----
  Word load(Addr addr);
  void store(Addr addr, Word value);
  // Atomic ops: one exclusive access; the bool result reports CAS success.
  bool cas(Addr addr, Word expected, Word desired);
  Word fetch_add(Addr addr, Word delta);
  Word swap(Addr addr, Word value);
  void compute(Cycles cycles);
  void pause(Cycles cycles = 40);  // _mm_pause-style busy-wait hint

  // ---- TSX primitives ----
  void tx_begin();
  void tx_commit();
  [[noreturn]] void tx_abort(uint8_t code);  // _xabort
  // Models executing a TSX-unfriendly instruction (syscall, cpuid, ...).
  void tx_unsupported_insn();
  bool in_tx() const;

  // ---- Introspection & host-side helpers ----
  CtxId current_ctx() const;
  bool on_fiber() const { return current_ != nullptr; }
  Cycles now() const;              // current context's clock
  Cycles wall() const;             // after run(): max finish time
  Cycles ctx_finish(CtxId) const;  // after run(): per-context finish time
  // Per-context busy cycles (the PMU's unhalted-clock counter; excludes
  // time parked in barriers, unlike the clock itself).
  Cycles ctx_busy(CtxId ctx) const { return ctxs_[ctx].busy; }

  // Host-side (costless) value access for setup/validation.
  Word peek(Addr addr) const { return mem_.backing().peek(addr); }
  void poke(Addr addr, Word value) { mem_.backing().poke(addr, value); }
  void prefault(Addr addr, uint64_t bytes) { mem_.backing().prefault(addr, bytes); }

  // Named barrier across all threads of the machine. Host-level: waiting
  // contexts are descheduled (no simulated spinning); on release their
  // clocks advance to the last arriver's clock.
  void barrier();

  MachineStats& stats() { return stats_; }
  const MachineStats& stats() const { return stats_; }
  MachineStats snapshot() const { return stats_; }

  MemorySystem& memory() { return mem_; }
  Rng& setup_rng() { return setup_rng_; }

  // Per-core busy cycles for the energy model (valid after run()).
  double core_busy_cycles() const;

  // Read-only view of the last abort delivered to `ctx` (testing).
  AbortReason last_abort_reason(CtxId ctx) const { return ctxs_[ctx].tx.reason; }

  // Installs (or clears) the observation hooks. Safe to call between ops;
  // typically done before run() by src/check's recorder. An installed
  // on_access hook routes every data op through the general path.
  void set_trace_hooks(TraceHooks hooks) {
    trace_ = std::move(hooks);
    refresh_fast_flags();
  }

  // Installs (or clears) the observability hooks (src/obs tracer). Distinct
  // from set_trace_hooks so recorder and tracer can coexist. If
  // `sample_window_cycles` > 0, on_sample_window fires each time simulated
  // time crosses a multiple of it.
  void set_obs_hooks(ObsHooks hooks, Cycles sample_window_cycles = 0);

 private:
  struct HwTx {
    bool active = false;
    int depth = 0;
    bool doomed = false;
    AbortReason reason = AbortReason::kNone;
    uint64_t conflict_line = ~0ull;
    uint32_t status = 0;
    CtxId attacker = kNoCtx;
    std::vector<std::pair<Addr, Word>> undo;
  };

  struct SimContext {
    CtxId id = 0;
    uint32_t core = 0;
    Cycles clock = 0;
    Cycles busy = 0;
    bool waiting = false;   // parked in a barrier
    bool finished = false;  // cached Fiber::finished() (updated in run())
    std::unique_ptr<Fiber> fiber;
    HwTx tx;
    Rng rng;
    // Next interrupt arrival time; +infinity when interrupts are disabled,
    // so the per-op due check is one branchless compare.
    double next_interrupt = 0;
    // ceil(next_interrupt) saturated to ~0 — the same due check as an
    // integer compare (n >= x iff n >= ceil(x) for integer n), saving the
    // int->double convert on every op. Kept in sync wherever
    // next_interrupt changes.
    Cycles interrupt_gate = 0;
    // This context's core-private L1 (mem_.l1(core)), cached so the data-op
    // fast paths skip the core load and per-core vector indexing.
    Cache* l1 = nullptr;
    uint32_t ops_since_resume = 0;  // for the sched_quantum_ops knob
    // Same-core sibling contexts (SMT), precomputed in the ctor so
    // sibling_active() is a short fixed walk instead of an all-ctx scan.
    uint32_t n_siblings = 0;
    SimContext* siblings[kMaxCtxs - 1] = {};
  };

  SimContext& cur();
  const SimContext& cur() const;

  // True when the current op may take the inline fast path: the cached
  // fast-context pointer is non-null (hooks and config allow it, the
  // context is outside any transaction, and no transaction is live
  // machine-wide — doomed implies active, so no abort can be pending
  // either) and no interrupt is due. next_interrupt is +infinity when
  // interrupts are disabled, so one compare covers both knobs.
  bool fast_op_ok(const SimContext* c) const {
    return c != nullptr && c->clock < c->interrupt_gate;
  }
  // Saturating ceil for SimContext::interrupt_gate (infinity when interrupts
  // are disabled; a double->uint64 cast of infinity would be UB).
  static Cycles interrupt_gate_for(double next_interrupt);
  void refresh_fast_flags() {
    fast_ok_ = !trace_.on_access && !cfg_.disable_fast_paths;
    refresh_fast_ctx();
  }
  // Recomputes fast_ctx_. Must be called whenever one of its inputs changes:
  // the running context (switch_in), the current context's tx.active, the
  // machine-wide live-transaction count (tx_begin / tx_clear sites), or
  // fast_ok_.
  void refresh_fast_ctx() {
    SimContext* c = current_;
    fast_ctx_ = (c != nullptr && fast_ok_ && !c->tx.active &&
                 mem_.active_tx_count() == 0)
                    ? c
                    : nullptr;
  }

  // Op prologue: deliver due interrupts, then any pending abort.
  void op_prologue();
  [[noreturn]] void deliver_abort(SimContext& c);
  void check_doomed();  // throws if current ctx is doomed

  // Rolls back and dooms a transaction (memory-system abort callback and
  // the path for self-initiated aborts). `attacker` is the context whose
  // access caused the abort — the victim itself for self-inflicted ones.
  void abort_tx(CtxId victim, AbortReason reason, uint64_t line, uint8_t code,
                CtxId attacker);

  void advance(Cycles core_cycles, Cycles mem_cycles);
  void advance_ctx(SimContext& c, Cycles core_cycles, Cycles mem_cycles);
  bool sibling_active(const SimContext& c) const;
  void maybe_yield();
  // Cold continuations of the inline hot helpers below the class.
  void maybe_yield_slow();
  void cross_sample_windows(SimContext& c);
  [[noreturn]] static void throw_off_fiber();
  // The runnable context with the lowest (clock, id), or a jittered pick
  // near it; null when no context is runnable.
  SimContext* pick_next();
  // Makes `next` the running context: resets its quantum and recomputes
  // fast_ctx_ and yield_at_.
  void switch_in(SimContext& next);
  // The running context `c` gives up the host thread: its fiber hands off
  // straight to pick_next()'s choice (or keeps running if that is c).
  void reschedule(SimContext& c);
  // Recomputes yield_at_ for current_. Must be called whenever another
  // context's clock, waiting or finished flag may have changed: at every
  // switch_in and at barrier release.
  void refresh_horizon();

  // Common memory-op body (general path).
  Cycles mem_access(Addr addr, bool is_write);

  // Out-of-line general paths: everything the fast paths bail out of
  // (faults, transactions, hooks, interrupts, cache misses, upgrades).
  Word load_general(Addr addr);
  void store_general(Addr addr, Word value);
  bool cas_general(Addr addr, Word expected, Word desired);
  Word fetch_add_general(Addr addr, Word delta);
  void compute_general(Cycles cycles);

  static uint32_t checked_threads(uint32_t n);

  MachineConfig cfg_;
  uint32_t num_threads_;
  MachineStats stats_;
  MemorySystem mem_;  // by value: hot paths reach it without a pointer chase
  std::vector<SimContext> ctxs_;  // sized once in the ctor; pointers stable
  SimContext* current_ = nullptr;
  // current_ when every fast-path precondition except interrupt arrival
  // holds, else null (see refresh_fast_ctx). The data-op fast paths guard on
  // this single pointer.
  SimContext* fast_ctx_ = nullptr;
  // current_ must yield once its clock reaches this (see refresh_horizon);
  // ~0 while no other context is runnable.
  Cycles yield_at_ = ~Cycles{0};
  bool ran_ = false;
  bool fast_ok_ = false;  // no on_access hook && fast paths enabled
  bool smt_possible_ = false;       // num_threads_ > cfg_.cores, fixed
  Cycles lat_l1_hit_ = 0;           // cfg_.lat_issue + cfg_.lat_l1, fixed

  // Barrier state.
  uint32_t barrier_arrived_ = 0;
  Cycles barrier_clock_ = 0;
  uint64_t barrier_generation_ = 0;

  Rng setup_rng_;
  Rng sched_rng_;  // scheduler jitter (sched_jitter_window)
  TraceHooks trace_;
  ObsHooks obs_;
  Cycles sample_window_ = 0;  // 0 = counter sampling off
  Cycles next_sample_ = 0;    // next window boundary to report
  // next_sample_ - 1 while sampling is on, ~0 while off: the per-op window
  // check is then a single load+compare that passes only at a boundary.
  Cycles sample_gate_ = ~Cycles{0};
};

// ---- Inline hot paths (DESIGN.md §10) -------------------------------------
//
// cur()/advance()/maybe_yield() and the data-op fast paths are header-inline
// so a workload loop compiles into straight-line code: callers see through
// the guard chain, keep the hot SimContext fields in registers, and only
// call out of line into the cold continuations (the general paths,
// sample-window crossings, and the multi-thread scheduler). Each fast path
// is op-for-op equivalent to its *_general twin for the cases it accepts:
// identical stat increments in identical order, identical advance()
// arguments, identical scheduling points. Every precondition is checked
// before anything is mutated, so bailing out replays the op from scratch
// with no double counting. Invariants relied on:
//   * !tx.active implies !tx.doomed (abort_tx only dooms active txs), so
//     neither check_doomed nor undo logging can be needed.
//   * fast_load/fast_store refuse when any transaction is live anywhere, so
//     conflict checks, tx tracking, and abort callbacks cannot fire.
//   * An L1 hit cannot fault (the first touch materialized the page) and
//     cannot evict, so requester_ attribution is never read.

inline Machine::SimContext& Machine::cur() {
  if (!current_) throw_off_fiber();
  return *current_;
}

inline const Machine::SimContext& Machine::cur() const {
  if (!current_) throw_off_fiber();
  return *current_;
}

inline void Machine::advance_ctx(SimContext& c, Cycles core_cycles,
                                 Cycles mem_cycles) {
  Cycles adj_core = core_cycles;
  if (smt_possible_ && sibling_active(c)) {
    adj_core = static_cast<Cycles>(
        static_cast<double>(core_cycles) * cfg_.smt_slowdown + 0.5);
  }
  c.clock += adj_core + mem_cycles;
  c.busy += adj_core + mem_cycles;
  // Sample-window counter sampling: report each window boundary the first
  // time any context's clock crosses it (emission is host-side only, so
  // sampling never perturbs the simulated timeline). sample_gate_ sits just
  // below the next boundary, or at ~0 when sampling is off — one compare
  // covers both.
  if (c.clock > sample_gate_) cross_sample_windows(c);
}

inline void Machine::advance(Cycles core_cycles, Cycles mem_cycles) {
  advance_ctx(cur(), core_cycles, mem_cycles);
}

inline void Machine::maybe_yield() {
  if (num_threads_ == 1) return;  // nothing to deschedule to
  maybe_yield_slow();
}

inline Word Machine::load(Addr addr) {
  SimContext* c = fast_ctx_;
  if (fast_op_ok(c) && addr % kWordBytes == 0) {
    if (BackingStore::Page* pg = mem_.backing().lookup_present(addr)) {
      if (Cycles lat = mem_.fast_load(*c->l1, line_of(addr))) {
        ++stats_.ops;
        advance_ctx(*c, lat, 0);
        Word v = pg->words[(addr % kPageBytes) / kWordBytes];
        maybe_yield();
        return v;
      }
    }
  }
  return load_general(addr);
}

inline void Machine::store(Addr addr, Word value) {
  SimContext* c = fast_ctx_;
  if (fast_op_ok(c) && addr % kWordBytes == 0) {
    if (BackingStore::Page* pg = mem_.backing().lookup_present(addr)) {
      if (Cycles lat = mem_.fast_store(*c->l1, c->core, line_of(addr))) {
        ++stats_.ops;
        advance_ctx(*c, lat, 0);
        pg->words[(addr % kPageBytes) / kWordBytes] = value;
        maybe_yield();
        return;
      }
    }
  }
  store_general(addr, value);
}

inline bool Machine::cas(Addr addr, Word expected, Word desired) {
  SimContext* c = fast_ctx_;
  if (fast_op_ok(c) && addr % kWordBytes == 0) {
    if (BackingStore::Page* pg = mem_.backing().lookup_present(addr)) {
      if (Cycles lat = mem_.fast_store(*c->l1, c->core, line_of(addr))) {
        ++stats_.ops;
        advance_ctx(*c, lat, 0);
        advance_ctx(*c, 4, 0);  // lock-prefixed overhead, as general path
        Word& slot = pg->words[(addr % kPageBytes) / kWordBytes];
        Word old = slot;
        bool ok = old == expected;
        if (ok) slot = desired;
        maybe_yield();
        return ok;
      }
    }
  }
  return cas_general(addr, expected, desired);
}

inline Word Machine::fetch_add(Addr addr, Word delta) {
  SimContext* c = fast_ctx_;
  if (fast_op_ok(c) && addr % kWordBytes == 0) {
    if (BackingStore::Page* pg = mem_.backing().lookup_present(addr)) {
      if (Cycles lat = mem_.fast_store(*c->l1, c->core, line_of(addr))) {
        ++stats_.ops;
        advance_ctx(*c, lat, 0);
        advance_ctx(*c, 4, 0);
        Word& slot = pg->words[(addr % kPageBytes) / kWordBytes];
        Word old = slot;
        slot = old + delta;
        maybe_yield();
        return old;
      }
    }
  }
  return fetch_add_general(addr, delta);
}

inline void Machine::compute(Cycles cycles) {
  SimContext* c = fast_ctx_;
  if (fast_op_ok(c)) {
    ++stats_.ops;
    advance_ctx(*c, cycles, 0);
    maybe_yield();
    return;
  }
  compute_general(cycles);
}

}  // namespace tsx::sim
