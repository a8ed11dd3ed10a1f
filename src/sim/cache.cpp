#include "sim/cache.h"

#include <stdexcept>

namespace tsx::sim {

Cache::Cache(const CacheGeometry& geom, const char* name)
    : sets_(geom.sets()), set_mask_(geom.sets() - 1), ways_(geom.ways),
      name_(name) {
  if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0) {
    throw std::invalid_argument("cache set count must be a nonzero power of 2");
  }
  lines_.resize(static_cast<size_t>(sets_) * ways_);
  mru_ = &lines_[0];  // any line works: invalid lines never match a probe
}

CacheLine* Cache::fill(uint64_t line_addr,
                       util::FnRef<void(const CacheLine&)> on_evict) {
  CacheLine* set = set_begin(set_index(line_addr));
  // Ways are scanned from the last to the first, so the lowest index wins:
  // `invalid` ends at the first invalid way, and `oldest` (by `<=`) at the
  // first of equal LRU stamps. The stamps decide only when every way is
  // valid.
  bool present = false;
  uint32_t invalid = ways_;
  uint32_t oldest = 0;
  uint64_t oldest_lru = ~uint64_t{0};
  for (uint32_t w = ways_; w-- > 0;) {
    const CacheLine& l = set[w];
    present |= l.tag == line_addr;
    invalid = l.tag == CacheLine::kNoTag ? w : invalid;
    bool older = l.lru <= oldest_lru;
    oldest = older ? w : oldest;
    oldest_lru = older ? l.lru : oldest_lru;
  }
  if (present) {
    throw std::logic_error("fill of already-present line");
  }
  CacheLine* victim = &set[invalid != ways_ ? invalid : oldest];
  if (victim->valid) {
    on_evict(*victim);
  }
  victim->reset(line_addr);
  victim->lru = ++tick_;
  return victim;
}

void Cache::invalidate(uint64_t line_addr) {
  if (CacheLine* line = probe(line_addr)) {
    line->valid = false;
    line->tag = CacheLine::kNoTag;  // keeps probe()'s single-compare honest
  }
}

uint64_t Cache::valid_lines() const {
  uint64_t n = 0;
  for (const auto& l : lines_) n += l.valid;
  return n;
}

}  // namespace tsx::sim
