#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/rng.h"

namespace {

using tsx::sim::Cache;
using tsx::sim::CacheGeometry;
using tsx::sim::CacheLine;

// A tiny 4-set, 2-way cache (8 lines of 64 B).
CacheGeometry tiny() { return CacheGeometry{8 * 64, 2}; }

TEST(Cache, GeometryDerivation) {
  CacheGeometry g{32 * 1024, 8};
  EXPECT_EQ(g.lines(), 512u);
  EXPECT_EQ(g.sets(), 64u);
}

TEST(Cache, MissThenHit) {
  Cache c(tiny(), "t");
  EXPECT_EQ(c.probe(100), nullptr);
  int evictions = 0;
  c.fill(100, [&](const CacheLine&) { ++evictions; });
  EXPECT_NE(c.probe(100), nullptr);
  EXPECT_EQ(evictions, 0);
}

TEST(Cache, LruEvictsColdest) {
  Cache c(tiny(), "t");
  // Set index = line % 4. Lines 0, 4, 8 map to set 0 (2 ways).
  c.fill(0, [](const CacheLine&) {});
  c.fill(4, [](const CacheLine&) {});
  c.touch(0);  // 4 becomes LRU
  uint64_t evicted = ~0ull;
  c.fill(8, [&](const CacheLine& v) { evicted = v.tag; });
  EXPECT_EQ(evicted, 4u);
  EXPECT_NE(c.probe(0), nullptr);
  EXPECT_NE(c.probe(8), nullptr);
  EXPECT_EQ(c.probe(4), nullptr);
}

TEST(Cache, FillOfPresentLineThrows) {
  Cache c(tiny(), "t");
  c.fill(3, [](const CacheLine&) {});
  EXPECT_THROW(c.fill(3, [](const CacheLine&) {}), std::logic_error);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(tiny(), "t");
  c.fill(5, [](const CacheLine&) {});
  c.invalidate(5);
  EXPECT_EQ(c.probe(5), nullptr);
  // Invalidate of missing line is a no-op.
  c.invalidate(5);
}

TEST(Cache, EvictionCallbackSeesFlags) {
  Cache c(tiny(), "t");
  CacheLine* l = c.fill(0, [](const CacheLine&) {});
  l->dirty = true;
  l->tx_write_mask = 0b10;
  c.fill(4, [](const CacheLine&) {});
  bool saw = false;
  // Evicting set 0 again must surface line 0 or 4; touch 4 so 0 is LRU.
  c.touch(4);
  c.fill(8, [&](const CacheLine& v) {
    saw = true;
    EXPECT_EQ(v.tag, 0u);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(v.tx_write_mask, 0b10);
  });
  EXPECT_TRUE(saw);
}

TEST(Cache, ResetClearsFlagsOnReuse) {
  Cache c(tiny(), "t");
  CacheLine* l = c.fill(0, [](const CacheLine&) {});
  l->dirty = true;
  l->tx_read_mask = 0xff;
  c.invalidate(0);
  CacheLine* l2 = c.fill(0, [](const CacheLine&) {});
  EXPECT_FALSE(l2->dirty);
  EXPECT_EQ(l2->tx_read_mask, 0);
}

TEST(Cache, ValidLineCount) {
  Cache c(tiny(), "t");
  EXPECT_EQ(c.valid_lines(), 0u);
  c.fill(1, [](const CacheLine&) {});
  c.fill(2, [](const CacheLine&) {});
  EXPECT_EQ(c.valid_lines(), 2u);
}

TEST(Cache, NonPowerOfTwoSetsRejected) {
  CacheGeometry g{3 * 64, 1};  // 3 sets
  EXPECT_THROW(Cache(g, "bad"), std::invalid_argument);
}

TEST(Cache, TouchUpdatesRecency) {
  Cache c(tiny(), "t");
  c.fill(0, [](const CacheLine&) {});
  c.fill(4, [](const CacheLine&) {});
  // Without the touch, 0 would be evicted; with it, 4 goes.
  ASSERT_NE(c.touch(0), nullptr);
  uint64_t evicted = ~0ull;
  c.fill(8, [&](const CacheLine& v) { evicted = v.tag; });
  EXPECT_EQ(evicted, 4u);
}

// Reference model of the replacement rules: a way scan that stops at the
// first match, and a victim that is the first invalid way, else the first
// way with the smallest LRU stamp. Ways are indices, so the model also says
// which slot a line occupies.
class RefCache {
 public:
  explicit RefCache(const CacheGeometry& g)
      : sets_(g.sets()), ways_(g.ways), lines_(size_t{sets_} * ways_) {}

  // Way holding `line`, or -1.
  int probe(uint64_t line) const {
    const Line* set = &lines_[set_of(line) * ways_];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].tag == line) return static_cast<int>(w);
    }
    return -1;
  }
  int touch(uint64_t line) {
    int w = probe(line);
    if (w >= 0) lines_[set_of(line) * ways_ + w].lru = ++tick_;
    return w;
  }
  // Returns the way filled; `evicted` is the displaced line or -1.
  int fill(uint64_t line, int64_t& evicted) {
    Line* set = &lines_[set_of(line) * ways_];
    Line* victim = nullptr;
    for (uint32_t w = 0; w < ways_; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
      if (!victim || set[w].lru < victim->lru) victim = &set[w];
    }
    evicted = victim->valid ? static_cast<int64_t>(victim->tag) : -1;
    *victim = Line{line, ++tick_, true};
    return static_cast<int>(victim - set);
  }
  void invalidate(uint64_t line) {
    int w = probe(line);
    if (w >= 0) lines_[set_of(line) * ways_ + w].valid = false;
  }
  uint64_t set_of(uint64_t line) const { return line % sets_; }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t lru = 0;
    bool valid = false;
  };
  uint32_t sets_;
  uint32_t ways_;
  std::vector<Line> lines_;
  uint64_t tick_ = 0;
};

// Random probe/touch/fill/invalidate sequences on the default L1 and L3
// geometries, against RefCache. Lines are drawn from three sets, twice as
// many per set as there are ways, so fills evict often. Every result must
// match: hit or miss, the way a line sits in (slot addresses within a set
// are compared against the model's way indices), each fill's victim and
// eviction callback, and the throw on filling a present line.
void check_against_reference(const CacheGeometry& g, uint64_t seed) {
  Cache c(g, "t");
  RefCache ref(g);
  const uint64_t sets = g.sets();
  const uint64_t probe_sets[] = {0, 1, sets - 1};
  tsx::sim::Rng rng(seed);
  // Per set: one line's slot and way, to locate every other slot by offset.
  std::map<uint64_t, std::pair<const CacheLine*, int>> anchor;
  auto expect_way = [&](uint64_t line, const CacheLine* got, int way) {
    auto [it, fresh] = anchor.try_emplace(ref.set_of(line), got, way);
    if (!fresh) {
      EXPECT_EQ(got - it->second.first, way - it->second.second);
    }
  };
  for (int step = 0; step < 20000; ++step) {
    uint64_t line = probe_sets[rng.below(3)] + sets * rng.below(2 * g.ways);
    int op = static_cast<int>(rng.below(4));
    SCOPED_TRACE(testing::Message() << g.ways << "-way, step " << step
                                    << ", op " << op << ", line " << line);
    if (op == 0) {
      const CacheLine* got = c.probe(line);
      int way = ref.probe(line);
      ASSERT_EQ(got != nullptr, way >= 0);
      if (got) {
        EXPECT_EQ(got->tag, line);
        expect_way(line, got, way);
      }
    } else if (op == 1) {
      const CacheLine* got = c.touch(line);
      int way = ref.touch(line);
      ASSERT_EQ(got != nullptr, way >= 0);
      if (got) expect_way(line, got, way);
    } else if (op == 2) {
      if (ref.probe(line) >= 0) {
        EXPECT_THROW(c.fill(line, [](const CacheLine&) {}), std::logic_error);
        continue;
      }
      int calls = 0;
      int64_t got_victim = -1;
      const CacheLine* got = c.fill(line, [&](const CacheLine& v) {
        ++calls;
        got_victim = static_cast<int64_t>(v.tag);
      });
      int64_t want_victim;
      int way = ref.fill(line, want_victim);
      EXPECT_EQ(calls, want_victim >= 0 ? 1 : 0);
      EXPECT_EQ(got_victim, want_victim);
      ASSERT_EQ(got->tag, line);
      expect_way(line, got, way);
    } else {
      c.invalidate(line);
      ref.invalidate(line);
      EXPECT_EQ(c.probe(line), nullptr);
    }
  }
}

TEST(Cache, MatchesReferenceModelOnL1Geometry) {
  check_against_reference(tsx::sim::MachineConfig{}.l1, 11);
}

TEST(Cache, MatchesReferenceModelOnL3Geometry) {
  check_against_reference(tsx::sim::MachineConfig{}.l3, 12);
}

}  // namespace
