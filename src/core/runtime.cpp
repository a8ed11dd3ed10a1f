#include "core/runtime.h"

#include <stdexcept>

#include "mem/layout.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"

namespace tsx::core {

namespace {

sim::MemStats diff(const sim::MemStats& a, const sim::MemStats& b) {
  sim::MemStats d;
  d.loads = a.loads - b.loads;
  d.stores = a.stores - b.stores;
  d.l1_hits = a.l1_hits - b.l1_hits;
  d.l2_hits = a.l2_hits - b.l2_hits;
  d.l3_hits = a.l3_hits - b.l3_hits;
  d.mem_accesses = a.mem_accesses - b.mem_accesses;
  d.c2c_transfers = a.c2c_transfers - b.c2c_transfers;
  d.invalidations = a.invalidations - b.invalidations;
  d.writebacks = a.writebacks - b.writebacks;
  d.page_faults = a.page_faults - b.page_faults;
  return d;
}

sim::TxStats diff(const sim::TxStats& a, const sim::TxStats& b) {
  sim::TxStats d;
  d.started = a.started - b.started;
  d.committed = a.committed - b.committed;
  for (size_t i = 0; i < d.aborts_by_reason.size(); ++i) {
    d.aborts_by_reason[i] = a.aborts_by_reason[i] - b.aborts_by_reason[i];
  }
  for (size_t i = 0; i < d.aborts_by_misc.size(); ++i) {
    d.aborts_by_misc[i] = a.aborts_by_misc[i] - b.aborts_by_misc[i];
  }
  return d;
}

sim::MachineStats diff(const sim::MachineStats& a, const sim::MachineStats& b) {
  sim::MachineStats d;
  d.mem = diff(a.mem, b.mem);
  d.tx = diff(a.tx, b.tx);
  d.ops = a.ops - b.ops;
  d.interrupts = a.interrupts - b.interrupts;
  d.core_busy_cycles = a.core_busy_cycles - b.core_busy_cycles;
  return d;
}

htm::RtmStats diff(const htm::RtmStats& a, const htm::RtmStats& b) {
  htm::RtmStats d;
  d.transactions = a.transactions - b.transactions;
  d.attempts = a.attempts - b.attempts;
  d.commits = a.commits - b.commits;
  d.fallbacks = a.fallbacks - b.fallbacks;
  for (size_t i = 0; i < d.aborts_by_class.size(); ++i) {
    d.aborts_by_class[i] = a.aborts_by_class[i] - b.aborts_by_class[i];
  }
  for (size_t i = 0; i < d.aborts_by_reason.size(); ++i) {
    d.aborts_by_reason[i] = a.aborts_by_reason[i] - b.aborts_by_reason[i];
  }
  d.cycles_committed = a.cycles_committed - b.cycles_committed;
  d.cycles_aborted = a.cycles_aborted - b.cycles_aborted;
  d.cycles_fallback = a.cycles_fallback - b.cycles_fallback;
  return d;
}

stm::StmStats diff(const stm::StmStats& a, const stm::StmStats& b) {
  stm::StmStats d;
  d.transactions = a.transactions - b.transactions;
  d.starts = a.starts - b.starts;
  d.commits = a.commits - b.commits;
  for (size_t i = 0; i < d.aborts_by_cause.size(); ++i) {
    d.aborts_by_cause[i] = a.aborts_by_cause[i] - b.aborts_by_cause[i];
  }
  d.extensions = a.extensions - b.extensions;
  d.cycles_committed = a.cycles_committed - b.cycles_committed;
  d.cycles_aborted = a.cycles_aborted - b.cycles_aborted;
  return d;
}

}  // namespace

TxRuntime::TxRuntime(RunConfig cfg) : cfg_(std::move(cfg)) {
  machine_ = std::make_unique<sim::Machine>(cfg_.machine, cfg_.threads);
  heap_ = std::make_unique<mem::SimHeap>(*machine_, cfg_.heap);

  if (cfg_.obs.enabled) {
    const Cycles window = cfg_.obs.metrics.window_cycles;
    sink_ = std::make_unique<obs::TraceSink>(cfg_.obs.capacity, window);
    obs::TraceSink* s = sink_.get();
    sim::ObsHooks hooks;
    hooks.on_tx_begin = [s](CtxId c, Cycles t) { s->tx_begin(c, t); };
    hooks.on_tx_commit = [s](CtxId c, Cycles t) { s->tx_commit(c, t); };
    hooks.on_tx_abort = [s](CtxId c, Cycles t, sim::AbortReason r,
                            uint64_t line, CtxId attacker) {
      s->tx_abort(c, t, r, line, attacker);
    };
    hooks.on_tx_evict = [s](CtxId c, Cycles t, int level, uint64_t line) {
      s->evict(c, t, level, line);
    };
    if (window) {
      hooks.on_sample_window = [s](Cycles t, const sim::MachineStats& st) {
        s->window_boundary(t, st);
      };
    }
    machine_->set_obs_hooks(std::move(hooks), window);
  }

  // Runtime region: the backends' synchronization objects, one line each
  // (assigned in executors.cpp). All initialization is host-side pokes.
  machine_->prefault(mem::kRuntimeRegionBase, sim::kPageBytes);
  exec_ = make_executor(cfg_, ExecutorEnv{machine_.get(), heap_.get(),
                                          &observer_, sink_.get()});

  for (CtxId i = 0; i < cfg_.threads; ++i) {
    // Distinct, deterministic per-thread workload seeds.
    ctxs_.emplace_back(new TxCtx(*this, i, cfg_.seed * 1000003ull + i));
  }
}

TxRuntime::~TxRuntime() {
  if (sink_ && !cfg_.obs.label.empty()) {
    obs::Capture c = obs::make_capture(*sink_, cfg_.obs.label,
                                       cfg_.machine.freq_ghz, cfg_.threads);
    c.pmu = pmu_data();
    c.metrics = metrics_data();
    obs::Registry::global().add(std::move(c));
  }
}

std::optional<obs::MetricsData> TxRuntime::metrics_data() const {
  if (!sink_ || cfg_.obs.metrics.window_cycles == 0) return std::nullopt;
  return sink_->metrics_data(ran_ ? machine_->wall() : 0);
}

std::optional<obs::PmuData> TxRuntime::pmu_data() const {
  if (!sink_) return std::nullopt;
  std::vector<Cycles> finish(cfg_.threads, 0);
  std::vector<Cycles> busy(cfg_.threads, 0);
  if (ran_) {
    for (CtxId i = 0; i < cfg_.threads; ++i) {
      finish[i] = machine_->ctx_finish(i);
      busy[i] = machine_->ctx_busy(i);
    }
  }
  obs::PmuData d = sink_->pmu_data(
      machine_->snapshot(), ran_ ? machine_->wall() : 0, finish, busy,
      ran_ ? machine_->core_busy_cycles() : 0.0, cfg_.machine.energy,
      cfg_.machine.freq_ghz);
  // Heap placement counters ride along with the PMU data (perf-stat "heap"
  // block, counter digest, manifest) but come straight from the allocator.
  const mem::HeapStats& hs = heap_->stats();
  d.heap.present = true;
  d.heap.policy = mem::placement_policy_name(cfg_.heap.policy);
  d.heap.allocs = hs.allocs;
  d.heap.frees = hs.frees;
  d.heap.refills = hs.refills;
  d.heap.bytes_live = hs.bytes_live;
  d.heap.bytes_peak = hs.bytes_peak;
  d.heap.bytes_padding = hs.bytes_padding;
  d.heap.set_allocs = hs.set_allocs;
  return d;
}

void TxRuntime::run(const std::function<void(TxCtx&)>& worker) {
  std::vector<std::function<void(TxCtx&)>> workers(cfg_.threads, worker);
  run(std::move(workers));
}

void TxRuntime::run(std::vector<std::function<void(TxCtx&)>> workers) {
  if (ran_) throw std::logic_error("TxRuntime::run called twice");
  if (workers.size() != cfg_.threads) {
    throw std::invalid_argument("worker count != thread count");
  }
  ran_ = true;
  for (CtxId i = 0; i < cfg_.threads; ++i) {
    TxCtx* ctx = ctxs_[i].get();
    auto fn = std::move(workers[i]);
    machine_->set_thread(i, [ctx, fn = std::move(fn)] { fn(*ctx); });
  }
  machine_->run();
}

Addr TxRuntime::alloc_elide_lines(uint32_t nlines) {
  Addr a = mem::kElideRegionBase + next_elide_line_ * sim::kLineBytes;
  next_elide_line_ += nlines;
  machine_->prefault(a, uint64_t{nlines} * sim::kLineBytes);
  return a;
}

void TxRuntime::mark_measurement_start() {
  mark_stats_ = machine_->snapshot();
  mark_wall_ = machine_->wall();
  mark_core_busy_ = machine_->core_busy_cycles();
  mark_rtm_ = exec_->rtm_stats();
  mark_stm_ = exec_->stm_stats();
}

RunReport TxRuntime::report() const {
  RunReport r;
  sim::MachineStats end = machine_->snapshot();
  end.core_busy_cycles = machine_->core_busy_cycles();
  sim::Cycles end_wall = machine_->wall();

  if (mark_stats_) {
    sim::MachineStats m0 = *mark_stats_;
    m0.core_busy_cycles = mark_core_busy_;
    r.machine = diff(end, m0);
    r.wall_cycles = end_wall - mark_wall_;
    r.rtm = diff(exec_->rtm_stats(), mark_rtm_);
    r.stm = diff(exec_->stm_stats(), mark_stm_);
  } else {
    r.machine = end;
    r.wall_cycles = end_wall;
    r.rtm = exec_->rtm_stats();
    r.stm = exec_->stm_stats();
  }

  r.rtm_sites = exec_->rtm_site_stats();
  r.heap = heap_->stats();
  r.heap_policy = cfg_.heap.policy;

  sim::EnergyModel em(cfg_.machine.energy, cfg_.machine.freq_ghz);
  r.seconds = em.seconds(r.wall_cycles);
  const sim::MemStats& ms = r.machine.mem;
  r.energy = em.compute(r.machine.ops, ms.l1_accesses(), ms.l2_accesses(),
                        ms.l3_accesses(), ms.mem_accesses,
                        ms.invalidations + ms.c2c_transfers, ms.writebacks,
                        r.machine.core_busy_cycles, r.wall_cycles);
  return r;
}

void TxRuntime::execute_atomic(TxCtx& ctx, util::FnRef<void()> body,
                               uint32_t site) {
  if (ctx.in_atomic_) {  // flat nesting
    body();
    return;
  }
  struct Guard {
    bool* flag;
    ~Guard() { *flag = false; }
  } guard{&ctx.in_atomic_};
  ctx.in_atomic_ = true;

  // Attempt/retry/fallback structure, heap scoping and observer bracketing
  // all live behind the executor interface.
  exec_->execute(body, site);
}

// ---- TxCtx ----

Word TxCtx::load(Addr a) {
  if (in_atomic_) return rt_.exec_->load(id_, a);
  return rt_.machine_->load(a);
}

void TxCtx::store(Addr a, Word v) {
  if (in_atomic_) {
    rt_.exec_->store(id_, a, v);
    return;
  }
  rt_.machine_->store(a, v);
}

bool TxCtx::cas(Addr a, Word expected, Word desired) {
  if (in_atomic_ && rt_.exec_->instrumented(id_)) {
    throw std::logic_error("raw CAS inside an instrumented transaction");
  }
  return rt_.machine_->cas(a, expected, desired);
}

Word TxCtx::fetch_add(Addr a, Word delta) {
  if (in_atomic_ && rt_.exec_->instrumented(id_)) {
    throw std::logic_error("raw fetch_add inside an instrumented transaction");
  }
  return rt_.machine_->fetch_add(a, delta);
}

void TxCtx::compute(Cycles c) { rt_.machine_->compute(c); }
void TxCtx::pause() { rt_.machine_->pause(); }

void TxCtx::transaction(util::FnRef<void()> body, uint32_t site) {
  rt_.execute_atomic(*this, body, site);
}

ElideOutcome TxCtx::elide(util::FnRef<void()> body, Addr lock_word,
                          uint32_t site) {
  if (in_atomic_) {
    throw std::logic_error("elide attempt inside an atomic section");
  }
  struct Guard {
    bool* flag;
    ~Guard() { *flag = false; }
  } guard{&in_atomic_};
  in_atomic_ = true;
  return rt_.exec_->elide(body, lock_word, site);
}

void TxCtx::elide_fallback(util::FnRef<void()> body, uint32_t site) {
  if (in_atomic_) {
    throw std::logic_error("elide fallback inside an atomic section");
  }
  struct Guard {
    bool* flag;
    ~Guard() { *flag = false; }
  } guard{&in_atomic_};
  in_atomic_ = true;
  rt_.exec_->elide_fallback(body, site);
}

bool TxCtx::lock_cas(Addr a, Word expected, Word desired) {
  return rt_.exec_->lock_cas(a, expected, desired);
}

Word TxCtx::lock_fetch_add(Addr a, Word delta) {
  return rt_.exec_->lock_fetch_add(a, delta);
}

Addr TxCtx::malloc(uint64_t bytes, uint64_t align) {
  return rt_.heap_->alloc(bytes, align);
}

void TxCtx::free(Addr a) { rt_.heap_->free(a); }

void TxCtx::barrier() { rt_.machine_->barrier(); }

Cycles TxCtx::now() const { return rt_.machine_->now(); }

uint32_t TxCtx::threads() const { return rt_.cfg_.threads; }

bool TxCtx::in_rtm_fallback() const { return rt_.exec_->in_serial_fallback(); }

}  // namespace tsx::core
