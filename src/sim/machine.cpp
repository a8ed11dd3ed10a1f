#include "sim/machine.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tsx::sim {

Cycles Machine::interrupt_gate_for(double next_interrupt) {
  // 2^63 comfortably exceeds any simulated clock; casting infinity (the
  // interrupts-disabled sentinel) would be UB.
  if (next_interrupt >= 9.2e18) return ~Cycles{0};
  return static_cast<Cycles>(std::ceil(next_interrupt));
}

uint32_t Machine::checked_threads(uint32_t n) {
  if (n == 0 || n > kMaxCtxs) {
    throw std::invalid_argument("thread count must be 1..8");
  }
  return n;
}

Machine::Machine(const MachineConfig& cfg, uint32_t num_threads)
    : cfg_(cfg), num_threads_(checked_threads(num_threads)),
      mem_(cfg_, num_threads_, &stats_.mem,
           [this](CtxId victim, AbortReason r, uint64_t line, CtxId attacker) {
             abort_tx(victim, r, line, 0, attacker);
           }),
      setup_rng_(cfg.seed ^ 0xabcdef), sched_rng_(cfg.seed ^ 0x5c4ed01eull) {
  smt_possible_ = num_threads_ > cfg_.cores;
  lat_l1_hit_ = cfg_.lat_issue + cfg_.lat_l1;
  // Sized exactly once: SimContext* stays stable for the machine's lifetime.
  ctxs_.resize(num_threads);
  for (CtxId i = 0; i < num_threads; ++i) {
    SimContext& c = ctxs_[i];
    c.id = i;
    c.core = mem_.core_of(i);
    c.rng.reseed(cfg_.seed * 0x9e3779b97f4a7c15ull + i + 1);
    // +infinity when disabled: the per-op due check is then never true.
    c.next_interrupt = cfg_.interrupts_enabled
                           ? c.rng.exponential(cfg_.interrupt_mean_cycles)
                           : std::numeric_limits<double>::infinity();
    c.interrupt_gate = interrupt_gate_for(c.next_interrupt);
    c.l1 = &mem_.l1(c.core);
  }
  // Same-core sibling lists for the SMT-slowdown check.
  for (SimContext& c : ctxs_) {
    for (SimContext& other : ctxs_) {
      if (other.id != c.id && other.core == c.core) {
        c.siblings[c.n_siblings++] = &other;
      }
    }
  }
  refresh_fast_flags();
}

Machine::~Machine() = default;

void Machine::set_obs_hooks(ObsHooks hooks, Cycles sample_window_cycles) {
  obs_ = std::move(hooks);
  sample_window_ = obs_.on_sample_window ? sample_window_cycles : 0;
  next_sample_ = sample_window_;
  sample_gate_ = sample_window_ ? next_sample_ - 1 : ~Cycles{0};
  if (obs_.on_tx_evict) {
    mem_.set_evict_hook([this](CtxId by, int level, uint64_t line) {
      obs_.on_tx_evict(by, ctxs_[by].clock, level, line);
    });
  } else {
    mem_.set_evict_hook(nullptr);
  }
}

void Machine::set_thread(CtxId ctx, ThreadFn fn) {
  if (ctx >= num_threads_) throw std::invalid_argument("bad ctx id");
  if (ctxs_[ctx].fiber) throw std::logic_error("thread already set");
  ctxs_[ctx].fiber =
      std::make_unique<Fiber>(cfg_.fiber_stack_bytes, std::move(fn));
}

void Machine::throw_off_fiber() {
  throw std::logic_error("simulation op outside a fiber");
}

CtxId Machine::current_ctx() const { return cur().id; }

Cycles Machine::now() const { return cur().clock; }

Cycles Machine::wall() const {
  Cycles w = 0;
  for (const SimContext& c : ctxs_) w = std::max(w, c.clock);
  return w;
}

Cycles Machine::ctx_finish(CtxId ctx) const { return ctxs_[ctx].clock; }

double Machine::core_busy_cycles() const {
  // A core is modeled busy for as long as its busiest context.
  std::vector<double> core_busy(cfg_.cores, 0.0);
  for (const SimContext& c : ctxs_) {
    core_busy[c.core] = std::max(core_busy[c.core], static_cast<double>(c.busy));
  }
  double total = 0;
  for (double b : core_busy) total += b;
  return total;
}

bool Machine::sibling_active(const SimContext& c) const {
  for (uint32_t i = 0; i < c.n_siblings; ++i) {
    if (!c.siblings[i]->finished) return true;
  }
  return false;
}

// Boundaries are reported in order, each by the first context whose clock
// reaches it.
void Machine::cross_sample_windows(SimContext& c) {
  while (c.clock >= next_sample_) {
    obs_.on_sample_window(next_sample_, stats_);
    next_sample_ += sample_window_;
  }
  sample_gate_ = next_sample_ - 1;
}

void Machine::maybe_yield_slow() {
  SimContext& c = cur();
  // sched_quantum_ops: hold the fiber for a full quantum of ops before the
  // usual clock comparison may deschedule it.
  if (cfg_.sched_quantum_ops > 0) {
    if (++c.ops_since_resume < cfg_.sched_quantum_ops) return;
  }
  if (c.clock >= yield_at_) reschedule(c);
}

// A context yields when another runnable context has a clock below
// c.clock + sched_jitter_window, or the same clock and a lower id. Both
// depend on the others only through the lowest (clock, id) among them, and
// for integer clocks reduce to c.clock >= yield_at_ as computed here.
void Machine::refresh_horizon() {
  const SimContext& c = *current_;
  const SimContext* low = nullptr;
  for (const SimContext& other : ctxs_) {
    if (&other == &c || other.finished || other.waiting) continue;
    // ctxs_ is in id order, so a tie keeps the lower id.
    if (!low || other.clock < low->clock) low = &other;
  }
  const Cycles window = cfg_.sched_jitter_window;
  if (!low) {
    yield_at_ = ~Cycles{0};
  } else if (window == 0) {
    yield_at_ = low->clock + (low->id > c.id ? 1 : 0);
  } else {
    yield_at_ = low->clock + 1 > window ? low->clock + 1 - window : 0;
  }
}

void Machine::switch_in(SimContext& next) {
  current_ = &next;
  next.ops_since_resume = 0;
  refresh_fast_ctx();
  refresh_horizon();
}

void Machine::reschedule(SimContext& c) {
  SimContext* next = pick_next();
  if (!next) {
    // c is parked in a barrier and no context can run: run() reports the
    // deadlock.
    c.fiber->yield();
    return;
  }
  switch_in(*next);
  if (next != &c) c.fiber->yield_to(*next->fiber);
}

Machine::SimContext* Machine::pick_next() {
  SimContext* best = nullptr;
  for (SimContext& c : ctxs_) {
    if (c.finished || c.waiting) continue;
    if (!best || c.clock < best->clock ||
        (c.clock == best->clock && c.id < best->id)) {
      best = &c;
    }
  }
  // Scheduler jitter: any runnable context within the window of the clock
  // minimum may run next; the choice is a deterministic function of the
  // machine seed and the pick sequence. Yield points stay unchanged, only
  // the order in which eligible fibers interleave varies — exactly the
  // degree of freedom real timing noise has.
  if (best && cfg_.sched_jitter_window > 0) {
    SimContext* eligible[kMaxCtxs];
    uint32_t n = 0;
    for (SimContext& c : ctxs_) {
      if (c.finished || c.waiting) continue;
      if (c.clock <= best->clock + cfg_.sched_jitter_window) {
        eligible[n++] = &c;
      }
    }
    if (n > 1) best = eligible[sched_rng_.below(n)];
  }
  return best;
}

void Machine::run() {
  if (ran_) throw std::logic_error("Machine::run called twice");
  for (SimContext& c : ctxs_) {
    if (!c.fiber) throw std::logic_error("unset thread function");
  }
  ran_ = true;
  while (SimContext* next = pick_next()) {
    switch_in(*next);
    next->fiber->resume();
    // Fibers hand off among themselves; control comes back here only when
    // the running one finishes, or is parked with nothing runnable.
    SimContext& back = *current_;
    current_ = nullptr;
    refresh_fast_ctx();
    back.finished = back.fiber->finished();
    if (back.finished && back.fiber->error()) {
      std::rethrow_exception(back.fiber->error());
    }
  }
  for (const SimContext& c : ctxs_) {
    if (!c.finished) {
      throw std::logic_error("barrier deadlock: all runnable contexts waiting");
    }
  }
}

void Machine::op_prologue() {
  SimContext& c = cur();
  if (cfg_.interrupts_enabled) {
    while (static_cast<double>(c.clock) >= c.next_interrupt) {
      ++stats_.interrupts;
      if (c.tx.active && !c.tx.doomed) {
        abort_tx(c.id, AbortReason::kInterrupt, ~0ull, 0, c.id);
      }
      c.clock += cfg_.interrupt_handler_cycles;
      c.busy += cfg_.interrupt_handler_cycles;
      c.next_interrupt = static_cast<double>(c.clock) +
                         c.rng.exponential(cfg_.interrupt_mean_cycles);
      c.interrupt_gate = interrupt_gate_for(c.next_interrupt);
    }
  }
  check_doomed();
}

void Machine::check_doomed() {
  SimContext& c = cur();
  if (c.tx.doomed) deliver_abort(c);
}

void Machine::deliver_abort(SimContext& c) {
  advance(cfg_.tx_abort_cycles, 0);
  TxAborted ex{c.tx.status, c.tx.reason, c.tx.conflict_line, c.tx.attacker};
  c.tx.doomed = false;
  c.tx.active = false;
  c.tx.depth = 0;
  refresh_fast_ctx();
  maybe_yield();
  throw ex;
}

void Machine::abort_tx(CtxId victim, AbortReason reason, uint64_t line,
                       uint8_t code, CtxId attacker) {
  SimContext& v = ctxs_[victim];
  if (!v.tx.active || v.tx.doomed) return;
  // Roll back speculative values (newest first).
  for (auto it = v.tx.undo.rbegin(); it != v.tx.undo.rend(); ++it) {
    mem_.backing().poke(it->first, it->second);
  }
  v.tx.undo.clear();
  mem_.tx_clear(victim);
  refresh_fast_ctx();
  v.tx.doomed = true;
  v.tx.reason = reason;
  v.tx.conflict_line = line;
  v.tx.status = status_for_abort(reason, code);
  v.tx.attacker = attacker;
  if (v.tx.depth > 1) v.tx.status |= xstatus::kNested;
  ++stats_.tx.aborts_by_reason[static_cast<size_t>(reason)];
  ++stats_.tx.aborts_by_misc[static_cast<size_t>(misc_bucket_for(reason))];
  if (trace_.on_tx_abort) trace_.on_tx_abort(victim);
  if (obs_.on_tx_abort) {
    obs_.on_tx_abort(victim, v.clock, reason, line, attacker);
  }
}

Cycles Machine::mem_access(Addr addr, bool is_write) {
  SimContext& c = cur();
  bool tx = c.tx.active && !c.tx.doomed;
  // Page-fault model: faults are suppressed inside transactions (the tx
  // aborts and the page stays absent, as on real TSX hardware).
  if (!mem_.backing().present(addr)) {
    if (tx) {
      abort_tx(c.id, AbortReason::kPageFault, line_of(addr), 0, c.id);
      deliver_abort(c);
    }
    ++stats_.mem.page_faults;
    advance(cfg_.page_fault_cycles, 0);
    mem_.backing().make_present(addr);
  }
  Cycles lat = mem_.access(c.id, addr, is_write, tx);
  ++stats_.ops;
  // Issue and L1-hit cycles are core-bound (the L1 ports are shared by the
  // hyper-thread pair and scale with smt_slowdown); anything beyond the L1
  // is latency in the uncore and overlaps freely.
  Cycles core_part = std::min(lat, lat_l1_hit_);
  advance(core_part, lat - core_part);
  return lat;
}

// The inline fast paths (machine.h) bail out to the *_general continuations
// below for everything else: faults, transactions, hooks, interrupts, cache
// misses, upgrades, unaligned addresses.

Word Machine::load_general(Addr addr) {
  op_prologue();
  mem_access(addr, /*is_write=*/false);
  check_doomed();
  SimContext& c = cur();
  Word v = mem_.backing().peek(addr);
  if (trace_.on_access) {
    trace_.on_access(c.id, addr, v, v, /*is_write=*/false, c.tx.active);
  }
  maybe_yield();
  return v;
}

void Machine::store_general(Addr addr, Word value) {
  op_prologue();
  mem_access(addr, /*is_write=*/true);
  check_doomed();
  SimContext& c = cur();
  Word old = mem_.backing().peek(addr);
  if (c.tx.active) {
    c.tx.undo.emplace_back(addr, old);
  }
  mem_.backing().poke(addr, value);
  if (trace_.on_access) {
    trace_.on_access(c.id, addr, old, value, /*is_write=*/true, c.tx.active);
  }
  maybe_yield();
}

bool Machine::cas_general(Addr addr, Word expected, Word desired) {
  op_prologue();
  mem_access(addr, /*is_write=*/true);
  check_doomed();
  SimContext& c = cur();
  advance(4, 0);  // lock-prefixed op overhead beyond the exclusive access
  Word old = mem_.backing().peek(addr);
  if (old != expected) {
    if (trace_.on_access) {
      trace_.on_access(c.id, addr, old, old, /*is_write=*/false, c.tx.active);
    }
    maybe_yield();
    return false;
  }
  if (c.tx.active) c.tx.undo.emplace_back(addr, old);
  mem_.backing().poke(addr, desired);
  if (trace_.on_access) {
    trace_.on_access(c.id, addr, old, old, /*is_write=*/false, c.tx.active);
    trace_.on_access(c.id, addr, old, desired, /*is_write=*/true, c.tx.active);
  }
  maybe_yield();
  return true;
}

Word Machine::fetch_add_general(Addr addr, Word delta) {
  op_prologue();
  mem_access(addr, /*is_write=*/true);
  check_doomed();
  SimContext& c = cur();
  advance(4, 0);
  Word old = mem_.backing().peek(addr);
  if (c.tx.active) c.tx.undo.emplace_back(addr, old);
  mem_.backing().poke(addr, old + delta);
  if (trace_.on_access) {
    trace_.on_access(c.id, addr, old, old, /*is_write=*/false, c.tx.active);
    trace_.on_access(c.id, addr, old, old + delta, /*is_write=*/true,
                     c.tx.active);
  }
  maybe_yield();
  return old;
}

Word Machine::swap(Addr addr, Word value) {
  op_prologue();
  mem_access(addr, /*is_write=*/true);
  check_doomed();
  SimContext& c = cur();
  advance(4, 0);
  Word old = mem_.backing().peek(addr);
  if (c.tx.active) c.tx.undo.emplace_back(addr, old);
  mem_.backing().poke(addr, value);
  if (trace_.on_access) {
    trace_.on_access(c.id, addr, old, value, /*is_write=*/true, c.tx.active);
  }
  maybe_yield();
  return old;
}

void Machine::compute_general(Cycles cycles) {
  op_prologue();
  ++stats_.ops;
  advance(cycles, 0);
  maybe_yield();
}

void Machine::pause(Cycles cycles) { compute(cycles); }

void Machine::tx_begin() {
  op_prologue();
  SimContext& c = cur();
  if (c.tx.active) {
    ++c.tx.depth;  // flat nesting
    advance(8, 0);
    maybe_yield();
    return;
  }
  ++stats_.ops;
  advance(cfg_.tx_begin_cycles, 0);
  c.tx.active = true;
  c.tx.depth = 1;
  c.tx.doomed = false;
  c.tx.reason = AbortReason::kNone;
  c.tx.conflict_line = ~0ull;
  c.tx.status = 0;
  c.tx.undo.clear();
  mem_.tx_begin(c.id, c.clock);
  refresh_fast_ctx();
  ++stats_.tx.started;
  if (trace_.on_tx_begin) trace_.on_tx_begin(c.id);
  if (obs_.on_tx_begin) obs_.on_tx_begin(c.id, c.clock);
  maybe_yield();
}

void Machine::tx_commit() {
  op_prologue();
  SimContext& c = cur();
  if (!c.tx.active) throw std::logic_error("tx_commit outside transaction");
  if (c.tx.depth > 1) {
    --c.tx.depth;
    advance(8, 0);
    maybe_yield();
    return;
  }
  ++stats_.ops;
  advance(cfg_.tx_commit_cycles, 0);
  mem_.tx_clear(c.id);
  c.tx.active = false;
  c.tx.depth = 0;
  c.tx.undo.clear();
  refresh_fast_ctx();
  ++stats_.tx.committed;
  // The commit hook fires here — after the speculative state became the
  // committed state, before the next scheduling point — so a recorder sees
  // transactions in exactly their serialization order.
  if (trace_.on_tx_commit) trace_.on_tx_commit(c.id);
  if (obs_.on_tx_commit) obs_.on_tx_commit(c.id, c.clock);
  maybe_yield();
}

void Machine::tx_abort(uint8_t code) {
  op_prologue();
  SimContext& c = cur();
  if (!c.tx.active) throw std::logic_error("tx_abort outside transaction");
  abort_tx(c.id, AbortReason::kExplicit, ~0ull, code, c.id);
  deliver_abort(c);
}

void Machine::tx_unsupported_insn() {
  op_prologue();
  SimContext& c = cur();
  if (c.tx.active) {
    abort_tx(c.id, AbortReason::kUnsupportedInsn, ~0ull, 0, c.id);
    deliver_abort(c);
  }
  advance(40, 0);
  maybe_yield();
}

bool Machine::in_tx() const { return cur().tx.active && !cur().tx.doomed; }

void Machine::barrier() {
  op_prologue();
  SimContext& c = cur();
  if (c.tx.active) throw std::logic_error("barrier inside transaction");
  advance(60, 0);  // syscall-ish entry cost
  ++barrier_arrived_;
  barrier_clock_ = std::max(barrier_clock_, c.clock);
  if (barrier_arrived_ == num_threads_) {
    // Release everyone at the last arriver's clock.
    Cycles release = barrier_clock_;
    uint64_t gen = barrier_generation_;
    barrier_arrived_ = 0;
    barrier_clock_ = 0;
    ++barrier_generation_;
    (void)gen;
    for (SimContext& other : ctxs_) {
      if (other.waiting) {
        other.waiting = false;
        other.clock = std::max(other.clock, release);
      }
    }
    c.clock = std::max(c.clock, release);
    refresh_horizon();  // the released contexts are runnable again
    maybe_yield();
    return;
  }
  c.waiting = true;
  while (c.waiting) reschedule(c);
}

}  // namespace tsx::sim
