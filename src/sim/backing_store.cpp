#include "sim/backing_store.h"

#include <algorithm>
#include <iterator>

namespace tsx::sim {

BackingStore::Page* BackingStore::lookup_slow(uint64_t pno) const {
  std::unique_ptr<Page>* slot = pages_.find(pno);
  if (!slot) return nullptr;
  Page* p = slot->get();
  // Only present pages enter the cache (lookup_present relies on it).
  if (p->present) {
    cache_no_ = pno;
    cache_page_ = p;
  }
  return p;
}

BackingStore::Page* BackingStore::lookup_present_slow(uint64_t pno) {
  if (Page* p = lookup_slow(pno)) return p->present ? p : nullptr;
  // First touch of a prefaulted page: materialize it, already present.
  return prefaulted(pno) ? &materialize(pno) : nullptr;
}

BackingStore::Page& BackingStore::materialize(uint64_t pno) {
  auto [slot, inserted] = pages_.try_emplace(pno);
  if (inserted) {
    *slot = std::make_unique<Page>();
    (*slot)->present = prefaulted(pno);
  }
  Page* p = slot->get();
  if (p->present) {
    cache_no_ = pno;
    cache_page_ = p;
  }
  return *p;
}

bool BackingStore::prefaulted(uint64_t pno) const {
  // The last interval starting at or before pno is the only candidate.
  auto it = std::upper_bound(
      prefaulted_.begin(), prefaulted_.end(), pno,
      [](uint64_t p, const Interval& iv) { return p < iv.first; });
  return it != prefaulted_.begin() && pno < std::prev(it)->end;
}

void BackingStore::make_present(Addr addr) { page_for(addr).present = true; }

void BackingStore::prefault(Addr addr, uint64_t bytes) {
  if (bytes == 0) return;
  uint64_t first = page_of(addr);
  uint64_t end = page_of(addr + bytes - 1) + 1;
  // Pages materialized before now get their flag here; later ones get it
  // in materialize().
  for (uint64_t p = first; p < end; ++p) {
    if (std::unique_ptr<Page>* slot = pages_.find(p)) (*slot)->present = true;
  }
  // Merge with every interval that overlaps or touches [first, end). Heap
  // refills and elide lines arrive contiguous, so this is usually an append
  // or an extension of the last interval.
  auto lo = std::lower_bound(
      prefaulted_.begin(), prefaulted_.end(), first,
      [](const Interval& iv, uint64_t p) { return iv.end < p; });
  auto hi = lo;
  for (; hi != prefaulted_.end() && hi->first <= end; ++hi) {
    first = std::min(first, hi->first);
    end = std::max(end, hi->end);
  }
  if (lo == hi) {
    prefaulted_.insert(lo, Interval{first, end});
  } else {
    *lo = Interval{first, end};
    prefaulted_.erase(lo + 1, hi);
  }
}

}  // namespace tsx::sim
