#include "sim/memory_system.h"

#include <bit>
#include <stdexcept>

namespace tsx::sim {

MemorySystem::MemorySystem(const MachineConfig& cfg, uint32_t num_ctxs,
                           MemStats* stats, AbortFn on_abort)
    : cfg_(cfg),
      cores_(cfg.cores),
      num_ctxs_(num_ctxs),
      lat_l1_hit_(cfg.lat_issue + cfg.lat_l1),
      stats_(stats),
      on_abort_(std::move(on_abort)),
      l3_(cfg.l3, "L3"),
      tx_(num_ctxs) {
  if (num_ctxs > kMaxCtxs) throw std::invalid_argument("too many contexts");
  l1_.reserve(cores_);
  l2_.reserve(cores_);
  for (uint32_t c = 0; c < cores_; ++c) {
    l1_.emplace_back(cfg.l1, "L1");
    l2_.emplace_back(cfg.l2, "L2");
  }
}

void MemorySystem::tx_begin(CtxId ctx, Cycles begin_clock) {
  TxTrack& t = tx_[ctx];
  if (t.active) throw std::logic_error("tx_begin while active");
  t.active = true;
  t.begin_clock = begin_clock;
  ++active_tx_count_;
}

void MemorySystem::untrack(std::vector<TrackedLine>& lines,
                           uint8_t CacheLine::*mask, uint8_t bit) {
  for (const TrackedLine& t : lines) {
    if (t.slot->tag != t.line) {
      throw std::logic_error("tracked line left its cache slot");
    }
    t.slot->*mask &= static_cast<uint8_t>(~bit);
  }
  lines.clear();
}

void MemorySystem::tx_clear(CtxId ctx) {
  TxTrack& t = tx_[ctx];
  if (!t.active) return;
  uint8_t bit = static_cast<uint8_t>(1u << ctx);
  untrack(t.write_slots, &CacheLine::tx_write_mask, bit);
  untrack(t.read_slots, &CacheLine::tx_read_mask, bit);
  t.write_lines.clear();
  t.read_lines.clear();
  t.active = false;
  --active_tx_count_;
}

void MemorySystem::check_conflicts(CtxId requester, uint64_t line,
                                   bool is_write) {
  if (active_tx_count_ == 0) return;
  if (active_tx_count_ == 1 && tx_[requester].active) return;
  bool requester_in_tx = tx_[requester].active;
  Cycles requester_begin = tx_[requester].begin_clock;
  for (CtxId other = 0; other < num_ctxs_; ++other) {
    if (other == requester || !tx_[other].active) continue;
    const TxTrack& t = tx_[other];
    bool hit = t.write_lines.count(line) ||
               (is_write && !cfg_.tsx_ignore_read_set_conflicts &&
                t.read_lines.count(line));
    if (hit) {
      // The existing (victim) transaction aborts, requester-wins style.
      Cycles victim_begin = t.begin_clock;
      on_abort_(other, AbortReason::kConflict, line, requester);
      // Mutual kill: conflicts on bouncing lines usually abort both parties
      // on real TSX. The older transaction survives (here: the requester
      // dies only if the victim began earlier), so one transaction always
      // makes progress.
      if (cfg_.mutual_kill_conflicts && requester_in_tx &&
          victim_begin < requester_begin) {
        on_abort_(requester, AbortReason::kConflict, line, other);
        requester_in_tx = false;  // already doomed; don't re-abort
      }
    }
  }
}

void MemorySystem::drop_sharer_if_absent(uint32_t core, uint64_t line) {
  if (l1_[core].probe(line) || l2_[core].probe(line)) return;
  if (CacheLine* l3l = l3_.probe(line)) {
    l3l->sharers &= static_cast<uint8_t>(~(1u << core));
    if (l3l->dirty_owner == static_cast<int8_t>(core)) l3l->dirty_owner = -1;
  }
}

void MemorySystem::on_l1_evict(uint32_t core, CacheLine victim) {
  if (victim.tx_write_mask) {
    if (on_evict_) on_evict_(requester_, 1, victim.tag);
    uint8_t mask = victim.tx_write_mask;
    for (CtxId ctx = 0; ctx < num_ctxs_; ++ctx) {
      if (mask & (1u << ctx)) {
        on_abort_(ctx, AbortReason::kWriteCapacity, victim.tag, requester_);
      }
    }
  }
  // L1 victims fall into the L2 (which typically still holds the line since
  // fills install in both). Dirty data must not be lost.
  if (CacheLine* l2l = l2_[core].probe(victim.tag)) {
    l2l->dirty = l2l->dirty || victim.dirty;
    return;
  }
  if (victim.dirty) {
    CacheLine* nl =
        l2_[core].fill(victim.tag, [&](const CacheLine& v) { on_l2_evict(core, v); });
    nl->dirty = true;
    return;
  }
  // Clean and gone from the private hierarchy: update directory state.
  drop_sharer_if_absent(core, victim.tag);
}

void MemorySystem::on_l2_evict(uint32_t core, CacheLine victim) {
  if (victim.dirty) {
    // Writeback to the (inclusive) L3.
    ++stats_->writebacks;
    if (CacheLine* l3l = l3_.probe(victim.tag)) {
      l3l->dirty = true;
      if (l3l->dirty_owner == static_cast<int8_t>(core) &&
          !l1_[core].probe(victim.tag)) {
        l3l->dirty_owner = -1;
      }
    }
  }
  drop_sharer_if_absent(core, victim.tag);
}

void MemorySystem::on_l3_evict(CacheLine victim) {
  // Read-capacity aborts first: the line is leaving the hierarchy.
  if (victim.tx_read_mask) {
    if (on_evict_) on_evict_(requester_, 3, victim.tag);
    uint8_t mask = victim.tx_read_mask;
    for (CtxId ctx = 0; ctx < num_ctxs_; ++ctx) {
      if (mask & (1u << ctx)) {
        on_abort_(ctx, AbortReason::kReadCapacity, victim.tag, requester_);
      }
    }
  }
  // Inclusion: back-invalidate every private copy.
  uint8_t sharers = victim.sharers;
  for (uint32_t core = 0; core < cores_; ++core) {
    if (!(sharers & (1u << core))) continue;
    ++stats_->invalidations;
    if (CacheLine* l1l = l1_[core].probe(victim.tag)) {
      if (l1l->tx_write_mask) {
        if (on_evict_) on_evict_(requester_, 1, victim.tag);
        uint8_t mask = l1l->tx_write_mask;
        for (CtxId ctx = 0; ctx < num_ctxs_; ++ctx) {
          if (mask & (1u << ctx)) {
            on_abort_(ctx, AbortReason::kWriteCapacity, victim.tag, requester_);
          }
        }
      }
      l1_[core].invalidate(victim.tag);
    }
    l2_[core].invalidate(victim.tag);
  }
  if (victim.dirty || victim.dirty_owner >= 0) ++stats_->writebacks;
}

void MemorySystem::invalidate_other_private(uint32_t keep_core,
                                            CacheLine* l3_line) {
  uint64_t line = l3_line->tag;
  uint8_t others =
      l3_line->sharers & static_cast<uint8_t>(~(1u << keep_core));
  for (uint32_t core = 0; core < cores_; ++core) {
    if (!(others & (1u << core))) continue;
    ++stats_->invalidations;
    if (CacheLine* l1l = l1_[core].probe(line)) {
      // A tx-written line being stolen by another core: conflict semantics
      // are handled by check_conflicts via the tx sets; here we only drop
      // the stale copy (the owning tx has already been aborted).
      if (l1l->dirty) l3_line->dirty = true;
      l1_[core].invalidate(line);
    }
    if (CacheLine* l2l = l2_[core].probe(line)) {
      if (l2l->dirty) l3_line->dirty = true;
      l2_[core].invalidate(line);
    }
  }
  l3_line->sharers &= static_cast<uint8_t>(1u << keep_core);
  if (l3_line->dirty_owner >= 0 &&
      l3_line->dirty_owner != static_cast<int8_t>(keep_core)) {
    l3_line->dirty_owner = -1;
  }
}

Cycles MemorySystem::access(CtxId ctx, Addr addr, bool is_write, bool tx_mode) {
  uint64_t line = line_of(addr);
  uint32_t core = core_of(ctx);
  requester_ = ctx;  // abort attribution for everything this access triggers
  uint8_t ctx_bit = static_cast<uint8_t>(1u << ctx);
  uint8_t core_bit = static_cast<uint8_t>(1u << core);

  if (is_write) {
    ++stats_->stores;
  } else {
    ++stats_->loads;
  }

  // Requester-wins conflict resolution against all other live transactions.
  check_conflicts(ctx, line, is_write);

  Cycles lat = cfg_.lat_issue;
  CacheLine* l1l = l1_[core].touch(line);
  CacheLine* l3l = nullptr;

  if (l1l) {
    ++stats_->l1_hits;
    lat += cfg_.lat_l1;
    if (is_write) {
      l3l = l3_.probe(line);
      if (l3l && (l3l->sharers & static_cast<uint8_t>(~core_bit))) {
        lat += cfg_.lat_upgrade;
        invalidate_other_private(core, l3l);
      }
      if (l3l) l3l->dirty_owner = static_cast<int8_t>(core);
      l1l->dirty = true;
    }
  } else if (CacheLine* l2l = l2_[core].touch(line)) {
    ++stats_->l2_hits;
    lat += cfg_.lat_l2;
    if (is_write) {
      l3l = l3_.probe(line);
      if (l3l && (l3l->sharers & static_cast<uint8_t>(~core_bit))) {
        lat += cfg_.lat_upgrade;
        invalidate_other_private(core, l3l);
      }
      if (l3l) l3l->dirty_owner = static_cast<int8_t>(core);
    }
    // Promote into L1.
    bool was_dirty = l2l->dirty;
    l1l = l1_[core].fill(line,
                         [&](const CacheLine& v) { on_l1_evict(core, v); });
    l1l->dirty = was_dirty || is_write;
  } else {
    l3l = l3_.touch(line);
    if (l3l) {
      ++stats_->l3_hits;
      // Dirty in another core's private cache: cache-to-cache forward.
      if (l3l->dirty_owner >= 0 &&
          l3l->dirty_owner != static_cast<int8_t>(core)) {
        ++stats_->c2c_transfers;
        lat += cfg_.lat_c2c;
        uint32_t owner = static_cast<uint32_t>(l3l->dirty_owner);
        if (is_write) {
          invalidate_other_private(core, l3l);
        } else {
          // Downgrade the owner to shared; data written back to L3.
          if (CacheLine* ol = l1_[owner].probe(line)) ol->dirty = false;
          if (CacheLine* ol = l2_[owner].probe(line)) ol->dirty = false;
          l3l->dirty = true;
          l3l->dirty_owner = -1;
        }
      } else {
        lat += cfg_.lat_l3;
        if (is_write && (l3l->sharers & static_cast<uint8_t>(~core_bit))) {
          lat += cfg_.lat_upgrade;
          invalidate_other_private(core, l3l);
        }
      }
    } else {
      ++stats_->mem_accesses;
      lat += cfg_.lat_mem;
      l3l = l3_.fill(line, [&](const CacheLine& v) { on_l3_evict(v); });
    }
    l3l->sharers |= core_bit;
    if (is_write) l3l->dirty_owner = static_cast<int8_t>(core);
    // Fill the private levels.
    CacheLine* l2n =
        l2_[core].fill(line, [&](const CacheLine& v) { on_l2_evict(core, v); });
    l2n->dirty = false;
    l1l = l1_[core].fill(line,
                         [&](const CacheLine& v) { on_l1_evict(core, v); });
    l1l->dirty = is_write;
  }

  // Transactional tracking for the requester. The L1/L3 fills above may have
  // aborted the requester itself (self-eviction of its own tx line); the
  // Machine checks the doomed flag after this returns, so tracking a line
  // for an already-cleared transaction must be avoided. A line already
  // tracked keeps its bit in the slot recorded when it was first tracked,
  // so only a newly tracked line sets a bit (and, for a read, probes L3).
  TxTrack& t = tx_[ctx];
  if (tx_mode && t.active) {
    if (is_write) {
      if (t.write_lines.insert(line)) {
        l1l->tx_write_mask |= ctx_bit;
        t.write_slots.push_back({line, l1l});
      }
    } else if (t.read_lines.insert(line)) {
      if (!l3l) l3l = l3_.probe(line);
      if (l3l) {
        l3l->tx_read_mask |= ctx_bit;
        t.read_slots.push_back({line, l3l});
      }
    }
  }
  return lat;
}

}  // namespace tsx::sim
