#pragma once
// Set-associative cache with true-LRU replacement. Caches track presence and
// per-line transactional flags; data values live in the BackingStore.
//
// Flag usage by level:
//   * L1: tx_write_mask — which hw threads have this line in their tx
//     write-set. Evicting such a line is a write-capacity abort.
//   * L3: tx_read_mask — which hw threads have this line in their tx
//     read-set (the L3 is inclusive, so an L3 eviction means the line left
//     the whole cache hierarchy: read-capacity abort). L3 lines also carry
//     the directory state: which cores' private caches hold the line, and
//     which core (if any) holds it modified.
//
// probe/touch are header-inline: they run on every simulated access and the
// way scan is a handful of compares over one contiguous set. The eviction
// callback on fill() is a util::FnRef — constructed for free at the call
// site, no std::function allocation on the miss path.

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/types.h"
#include "util/fn_ref.h"

namespace tsx::sim {

struct CacheLine {
  // Invalid lines carry kNoTag so probe() is a single compare per way (no
  // real line address is ever ~0: the simulated address space is < 2^52).
  // `valid` mirrors `tag != kNoTag` for readers; both are kept in sync.
  static constexpr uint64_t kNoTag = ~0ull;

  uint64_t tag = kNoTag;  // full line address (addr / 64), or kNoTag
  uint64_t lru = 0;
  bool valid = false;
  bool dirty = false;
  uint8_t tx_write_mask = 0;  // L1 only
  uint8_t tx_read_mask = 0;   // L3 only
  uint8_t sharers = 0;        // L3 only: cores whose private caches hold it
  int8_t dirty_owner = -1;    // L3 only: core holding it modified, or -1

  void reset(uint64_t line_addr) {
    tag = line_addr;
    valid = true;
    dirty = false;
    tx_write_mask = 0;
    tx_read_mask = 0;
    sharers = 0;
    dirty_owner = -1;
  }
};

class Cache {
 public:
  Cache(const CacheGeometry& geom, const char* name);

  // Looks up without touching replacement state. The MRU memo short-circuits
  // the way scan for back-to-back hits on one line; it is self-validating
  // (the memoed line still holding the asked-for tag proves it was neither
  // invalidated nor re-filled), so it cannot change any probe result.
  // The scan visits every way and selects the match without an early exit:
  // tags are unique within a set, so at most one way matches, and the loop
  // has the same trip count whichever way hits (or none does).
  CacheLine* probe(uint64_t line_addr) {
    if (mru_->tag == line_addr) return mru_;
    CacheLine* set = set_begin(set_index(line_addr));
    CacheLine* hit = nullptr;
    for (uint32_t w = 0; w < ways_; ++w) {
      hit = set[w].tag == line_addr ? &set[w] : hit;
    }
    mru_ = hit ? hit : mru_;
    return hit;
  }
  const CacheLine* probe(uint64_t line_addr) const {
    return const_cast<Cache*>(this)->probe(line_addr);
  }

  // Refreshes replacement state of a line returned by probe(). Split from
  // touch() so speculative fast paths can look up first and only commit the
  // LRU update once every other precondition holds.
  void bump(CacheLine* line) { line->lru = ++tick_; }

  // Looks up and, on hit, refreshes LRU.
  CacheLine* touch(uint64_t line_addr) {
    CacheLine* line = probe(line_addr);
    if (line) bump(line);
    return line;
  }

  // Allocates a slot for `line_addr` (which must not be present; filling a
  // present line throws std::logic_error), invoking `on_evict` with the
  // victim line first if a valid line is displaced. The victim is the first
  // invalid way, else the least recently used one. One pass over the set
  // finds all three. Returns the (re-initialized) line.
  CacheLine* fill(uint64_t line_addr,
                  util::FnRef<void(const CacheLine&)> on_evict);

  // Drops the line if present (no writeback — caller decides what the
  // invalidation means).
  void invalidate(uint64_t line_addr);

  uint32_t sets() const { return sets_; }
  uint32_t ways() const { return ways_; }
  const char* name() const { return name_; }

  // Counts currently-valid lines (tests / debugging).
  uint64_t valid_lines() const;

 private:
  // sets_ is validated as a power of two, so the modulo is a mask — probe()
  // runs on every simulated access and a runtime integer divide would
  // dominate it.
  uint32_t set_index(uint64_t line_addr) const {
    return static_cast<uint32_t>(line_addr) & set_mask_;
  }
  CacheLine* set_begin(uint32_t set) { return &lines_[set * ways_]; }

  uint32_t sets_;
  uint32_t set_mask_;
  uint32_t ways_;
  uint64_t tick_ = 0;
  std::vector<CacheLine> lines_;
  // Most-recently probed-hit line; always a valid pointer into lines_ (never
  // null, so the hot compare needs no null check). See probe().
  CacheLine* mru_;
  const char* name_;
};

}  // namespace tsx::sim
