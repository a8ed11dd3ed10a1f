#pragma once
// Cache hierarchy + coherence + TSX read/write-set tracking.
//
// Model summary (see DESIGN.md §4):
//   * Private L1d and L2 per core (shared by the two hyper-threads of a
//     core), one shared *inclusive* L3.
//   * Line-granularity invalidation coherence. The directory state (which
//     cores' private caches hold a line; which core holds it modified) is
//     kept on the L3 line, which inclusion makes authoritative.
//   * Transactional write-sets are pinned in the L1: evicting a tx-written
//     line aborts the writing transaction(s) with kWriteCapacity. Write-set
//     capacity therefore tops out at 512 lines (and earlier under set
//     pressure or SMT sharing), matching the paper's Fig. 1.
//   * Transactional read-sets are tracked in the inclusive L3: an L3
//     eviction of a tx-read line aborts the reader(s) with kReadCapacity, so
//     read-sets scale to ~128K lines (Fig. 1).
//   * Conflicts are requester-wins: any write (tx or not) to a line in
//     another hw thread's read- or write-set, and any read of a line in
//     another hw thread's write-set, aborts that other transaction.
//
// The MemorySystem performs no value movement: it returns timing and raises
// abort callbacks; the Machine moves values through the BackingStore.
//
// Hot path (DESIGN.md §10): fast_load/fast_store are header-inline replicas
// of access()'s L1-hit branch for the zero-live-transactions case. They
// check every precondition before mutating anything (stats, LRU), so a
// bail-out to the full access() replays the op with no double-counting.
// Transactional line sets are util::FlatSet (O(1) epoch clear); next to
// them each transaction lists the cache slot of every line it tracks, so
// tx_clear clears the flags without probing. Caches are stored by value to
// drop a pointer chase.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/backing_store.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "util/flat_table.h"

namespace tsx::sim {

class MemorySystem {
 public:
  // `on_abort(victim, reason, line, attacker)` must roll the victim's
  // transaction back and call tx_clear(victim). It may be invoked
  // re-entrantly from access(). `attacker` is the context whose access
  // caused the abort: the conflicting requester for kConflict, the context
  // whose fill evicted the tracked line for capacity aborts (possibly the
  // victim itself).
  using AbortFn = std::function<void(CtxId, AbortReason, uint64_t, CtxId)>;
  // Optional observability hook (src/obs): a capacity-tracked line left its
  // tracking structure. `level` is 1 for L1 write-set evictions, 3 for L3
  // read-set evictions; `by` is the context whose access triggered it.
  using EvictFn = std::function<void(CtxId, int, uint64_t)>;

  MemorySystem(const MachineConfig& cfg, uint32_t num_ctxs, MemStats* stats,
               AbortFn on_abort);

  // Performs one data access and returns its latency in cycles. The caller
  // has already handled page faults. `tx_mode` tracks the line in the
  // requester's transactional sets.
  Cycles access(CtxId ctx, Addr addr, bool is_write, bool tx_mode);

  // Fast-path load: L1 hit with no live transaction anywhere. The zero-
  // live-transactions precondition is the CALLER's to guarantee (the
  // Machine's fast_ctx_ is null whenever any transaction is live, see
  // machine.h) — it is what makes conflict checks, tx tracking, and abort
  // callbacks unreachable. Returns the latency, or 0 if the L1 misses
  // (caller must then run the full access(); nothing has been mutated).
  // Mirrors access()'s L1-read branch: same stats, same LRU update, same
  // latency.
  // `l1` is the requester's core-private L1 (the Machine caches the pointer
  // per context, see SimContext::l1).
  Cycles fast_load(Cache& l1, uint64_t line) {
    CacheLine* l1l = l1.probe(line);
    if (!l1l) return 0;
    l1.bump(l1l);
    ++stats_->loads;
    ++stats_->l1_hits;
    return lat_l1_hit_;
  }

  // Fast-path store: additionally requires that no other core shares the
  // line (otherwise the upgrade/invalidate path must run). Mirrors
  // access()'s L1-write branch. Same caller-guaranteed precondition as
  // fast_load.
  Cycles fast_store(Cache& l1, uint32_t core, uint64_t line) {
    CacheLine* l1l = l1.probe(line);
    if (!l1l) return 0;
    CacheLine* l3l = l3_.probe(line);
    uint8_t core_bit = static_cast<uint8_t>(1u << core);
    if (l3l && (l3l->sharers & static_cast<uint8_t>(~core_bit))) return 0;
    l1.bump(l1l);
    ++stats_->stores;
    ++stats_->l1_hits;
    if (l3l) l3l->dirty_owner = static_cast<int8_t>(core);
    l1l->dirty = true;
    return lat_l1_hit_;
  }

  uint32_t active_tx_count() const { return active_tx_count_; }

  // `begin_clock` orders transactions by age for the mutual-kill policy.
  void tx_begin(CtxId ctx, Cycles begin_clock);
  // Clears transactional flags and sets (used for both commit and abort).
  void tx_clear(CtxId ctx);
  bool tx_active(CtxId ctx) const { return tx_[ctx].active; }

  const util::FlatSet& read_lines(CtxId ctx) const {
    return tx_[ctx].read_lines;
  }
  const util::FlatSet& write_lines(CtxId ctx) const {
    return tx_[ctx].write_lines;
  }

  BackingStore& backing() { return backing_; }
  const BackingStore& backing() const { return backing_; }

  uint32_t core_of(CtxId ctx) const { return ctx % cores_; }

  // Testing hooks.
  Cache& l1(uint32_t core) { return l1_[core]; }
  Cache& l2(uint32_t core) { return l2_[core]; }
  Cache& l3() { return l3_; }

  // Installs (or clears) the capacity-eviction observability hook. Unset
  // costs one branch per tx-tracked eviction.
  void set_evict_hook(EvictFn fn) { on_evict_ = std::move(fn); }

 private:
  // A tracked line and the cache slot holding its transactional bit. The
  // slot cannot change while the transaction lives: the caches never move
  // a line, and evicting or invalidating a tracked line aborts its
  // transaction (tx_clear) before the slot is reset. tx_clear still checks
  // each slot's tag and throws std::logic_error if the line is gone.
  struct TrackedLine {
    uint64_t line;
    CacheLine* slot;
  };

  struct TxTrack {
    bool active = false;
    Cycles begin_clock = 0;
    util::FlatSet read_lines;
    util::FlatSet write_lines;
    std::vector<TrackedLine> read_slots;   // L3 slots of read_lines
    std::vector<TrackedLine> write_slots;  // the core's L1 slots of write_lines
  };

  static void untrack(std::vector<TrackedLine>& lines,
                      uint8_t CacheLine::*mask, uint8_t bit);

  void check_conflicts(CtxId requester, uint64_t line, bool is_write);
  void on_l1_evict(uint32_t core, CacheLine victim);
  void on_l2_evict(uint32_t core, CacheLine victim);
  void on_l3_evict(CacheLine victim);
  // Removes other cores' private copies of `line` (for write ownership).
  void invalidate_other_private(uint32_t keep_core, CacheLine* l3_line);
  void drop_sharer_if_absent(uint32_t core, uint64_t line);

  const MachineConfig& cfg_;
  uint32_t cores_;
  uint32_t num_ctxs_;
  Cycles lat_l1_hit_;  // cfg_.lat_issue + cfg_.lat_l1, precomputed
  MemStats* stats_;
  AbortFn on_abort_;
  EvictFn on_evict_;
  // Context of the access() currently in flight — attributed as the attacker
  // of any abort the access triggers (conflict kills and capacity evictions
  // both happen inside access()). Fast paths skip it: they cannot trigger
  // aborts or evictions, and every slow access() re-sets it first.
  CtxId requester_ = 0;

  std::vector<Cache> l1_;
  std::vector<Cache> l2_;
  Cache l3_;
  BackingStore backing_;

  std::vector<TxTrack> tx_;
  uint32_t active_tx_count_ = 0;
};

}  // namespace tsx::sim
