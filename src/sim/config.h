#pragma once
// Machine configuration: a Haswell-like 4-core / 8-thread part (Core i7-4770
// class). Defaults are calibrated so the paper's microbenchmark anchors hold:
// write-set capacity cliff at 512 lines (L1d), read-set cliff at 128K lines
// (L3), duration cliff starting ~30K cycles and saturating by ~10M cycles,
// and a no-contention RTM/spinlock queue-pop ratio of roughly 1.45 (Table I).

#include <cstddef>
#include <cstdint>

#include "sim/energy_model.h"
#include "sim/types.h"

namespace tsx::sim {

struct CacheGeometry {
  uint32_t size_bytes = 0;
  uint32_t ways = 1;

  uint32_t lines() const { return size_bytes / kLineBytes; }
  uint32_t sets() const { return lines() / ways; }
};

struct MachineConfig {
  // Topology. Contexts are assigned to cores round-robin (ctx i -> core
  // i % cores), so runs with <= `cores` threads use distinct physical cores
  // (the paper pins threads the same way) and 8-thread runs pair
  // hyper-threads that share L1/L2.
  uint32_t cores = 4;

  CacheGeometry l1{32 * 1024, 8};
  CacheGeometry l2{256 * 1024, 8};
  CacheGeometry l3{8 * 1024 * 1024, 16};

  // Access latencies (cycles). Totals seen by a load: issue + hit level.
  Cycles lat_issue = 1;
  Cycles lat_l1 = 3;
  Cycles lat_l2 = 11;
  Cycles lat_l3 = 33;
  Cycles lat_mem = 210;
  Cycles lat_c2c = 60;      // dirty line forwarded from another core
  Cycles lat_upgrade = 22;  // invalidating sharers to gain write ownership

  // TSX costs (xbegin+xend round-trip ~56 cycles, calibrated against the
  // paper's Table I no-contention RTM/lock ratio of ~1.45).
  Cycles tx_begin_cycles = 30;
  Cycles tx_commit_cycles = 26;
  Cycles tx_abort_cycles = 110;  // pipeline flush + register restore

  // OS-event model.
  Cycles page_fault_cycles = 1800;        // minor fault service, non-tx path
  double interrupt_mean_cycles = 2.2e6;   // Poisson arrivals per hw thread
  Cycles interrupt_handler_cycles = 4200;
  bool interrupts_enabled = true;

  // Conflict policy: a conflicting access always aborts the other (victim)
  // transaction, requester-wins style (Intel's documented TSX behaviour and
  // the default). With mutual_kill_conflicts, a transactional requester
  // that kills an *older* transaction dies too — empirically, TSX conflicts
  // on bouncing lines often abort both parties. CAUTION: both-abort without
  // a lock fallback can livelock a simple retry loop (demonstrably — see
  // bench/ablation_conflict_policy); only enable it for executors with a
  // serial fallback.
  bool mutual_kill_conflicts = false;

  // FAULT INJECTION (testing only): drop the read-set half of conflict
  // detection — a transactional read-set line written by another thread no
  // longer aborts the reader. This deliberately breaks serializability
  // (lost updates / stale reads commit) and exists so src/check's oracle
  // can demonstrate that it catches a broken conflict policy.
  bool tsx_ignore_read_set_conflicts = false;

  // Schedule-exploration knobs (src/check's tm_fuzz). Defaults keep the
  // exact min-clock scheduler, so they are behaviour-neutral unless set.
  //
  // sched_jitter_window: contexts whose clock is within this many cycles of
  // the minimum are all eligible to run; the scheduler picks among them with
  // a deterministic RNG seeded from `seed`. Models timing noise (frequency
  // jitter, store-buffer drain, ...) without breaking determinism per seed.
  Cycles sched_jitter_window = 0;
  // sched_quantum_ops: once resumed, a context runs this many ops before it
  // may yield again (0 = yield whenever it ceases to be the clock minimum).
  // Coarsens the interleaving, exposing schedules where one thread races far
  // ahead in effect order.
  uint32_t sched_quantum_ops = 0;

  // Two hyper-threads sharing a core slow each other's core-bound work.
  double smt_slowdown = 1.45;

  double freq_ghz = 3.4;

  uint64_t seed = 0x7a117a11;

  EnergyParams energy{};

  // Fiber stacks for workload code (rb-tree rebalancing etc. is iterative,
  // but app logic may use moderate recursion).
  size_t fiber_stack_bytes = 512 * 1024;
};

}  // namespace tsx::sim
