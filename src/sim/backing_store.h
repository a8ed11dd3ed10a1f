#pragma once
// Paged word-granular backing store for the simulated physical address space,
// plus the page-table "present" bits used for the minor-fault model.
//
// Values live here exclusively; caches model timing/presence only. Pages are
// materialized lazily (zero-filled). A page starts *not present*: the first
// access from simulated code raises a minor fault (serviced in non-tx mode,
// aborting any enclosing hardware transaction — the behaviour behind the
// paper's misc3 aborts in vacation).
//
// Prefaulted memory (DESIGN.md §10) is recorded as page intervals, not
// materialized: a short sorted list of disjoint, non-adjacent [first, end)
// page ranges. A page missing from the table that lies inside an interval is
// present and reads 0. Its first poke or first simulated access
// (lookup_present) materializes it, already present, so later accesses find
// it in the table. The interval search runs only when a page is missing from
// the table. Invariant: every materialized page inside an interval is
// present (prefault flags the pages that were materialized before it).
//
// Hot-path layout (DESIGN.md §10): the page directory is an open-addressed
// util::FlatTable keyed by page number, fronted by a one-entry last-page
// cache. Pages are heap-allocated (unique_ptr slots), so a cached Page* stays
// valid across table growth, and pages are never freed — the cache needs no
// invalidation. peek/poke/present are inline: the common case is a cache hit
// followed by a single indexed load/store.

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/types.h"
#include "util/flat_table.h"

namespace tsx::sim {

class BackingStore {
 public:
  struct Page {
    bool present = false;
    std::array<Word, kWordsPerPage> words{};
  };

  // Host-side value access (no timing, no faults). Used by the machine for
  // the actual data movement and by tests/validators for inspection.
  Word peek(Addr addr) const {
    if (addr % kWordBytes != 0) throw std::invalid_argument("unaligned peek");
    const Page* p = lookup(addr);
    if (!p) return 0;
    return p->words[(addr % kPageBytes) / kWordBytes];
  }

  void poke(Addr addr, Word value) {
    if (addr % kWordBytes != 0) throw std::invalid_argument("unaligned poke");
    page_for(addr).words[(addr % kPageBytes) / kWordBytes] = value;
  }

  // Pure query: never materializes a page.
  bool present(Addr addr) const {
    if (const Page* p = lookup(addr)) return p->present;
    return prefaulted(page_of(addr));
  }

  void make_present(Addr addr);

  // Marks [addr, addr+bytes) present without cost: models memory that was
  // touched before the measured region (or by a pre-faulting allocator).
  // Records the page interval; its pages materialize on first touch.
  void prefault(Addr addr, uint64_t bytes);

  // Materialized pages: poked or accessed, not merely prefaulted.
  uint64_t pages_allocated() const { return pages_.size(); }

  // Hot-path lookup: materialized page holding addr, or null. One compare on
  // the last-page cache; the table probe is the cold continuation.
  Page* lookup(Addr addr) const {
    uint64_t pno = page_of(addr);
    if (pno == cache_no_) return cache_page_;
    return lookup_slow(pno);
  }

  // Hot-path lookup that returns only *present* pages, materializing a
  // prefaulted page on its first touch. The last-page cache is filled
  // exclusively with present pages (and presence is permanent), so a cache
  // hit needs no present check — the fast paths' common case is the single
  // compare.
  Page* lookup_present(Addr addr) {
    uint64_t pno = page_of(addr);
    if (pno == cache_no_) return cache_page_;
    return lookup_present_slow(pno);
  }

 private:
  // Half-open page-number interval [first, end).
  struct Interval {
    uint64_t first;
    uint64_t end;
  };

  Page& page_for(Addr addr) {
    if (Page* p = lookup(addr)) return *p;
    return materialize(page_of(addr));
  }

  Page* lookup_slow(uint64_t pno) const;
  Page* lookup_present_slow(uint64_t pno);
  Page& materialize(uint64_t pno);
  bool prefaulted(uint64_t pno) const;

  mutable util::FlatTable<std::unique_ptr<Page>> pages_;
  // Prefaulted page intervals, sorted by `first`, disjoint and non-adjacent.
  std::vector<Interval> prefaulted_;
  // Last-page cache, holding only *present* pages; valid whenever
  // cache_no_ != kNoPage (pages are never freed and never lose presence, so
  // a cached pointer cannot dangle and a cached page cannot fault).
  static constexpr uint64_t kNoPage = ~uint64_t{0};
  mutable uint64_t cache_no_ = kNoPage;
  mutable Page* cache_page_ = nullptr;
};

}  // namespace tsx::sim
