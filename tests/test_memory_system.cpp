#include <gtest/gtest.h>

#include <vector>

#include "sim/memory_system.h"

namespace {

using namespace tsx::sim;

struct AbortRecord {
  CtxId victim;
  AbortReason reason;
  uint64_t line;
  CtxId attacker;
};

struct Harness {
  MachineConfig cfg;
  MemStats stats;
  std::vector<AbortRecord> aborts;
  std::unique_ptr<MemorySystem> mem;

  explicit Harness(uint32_t ctxs = 4, MachineConfig c = {}) : cfg(c) {
    mem = std::make_unique<MemorySystem>(
        cfg, ctxs, &stats,
        [this](CtxId v, AbortReason r, uint64_t l, CtxId a) {
          aborts.push_back({v, r, l, a});
          mem->tx_clear(v);
        });
  }
};

TEST(MemorySystem, LatenciesByLevel) {
  Harness h;
  MachineConfig& c = h.cfg;
  // Cold: memory access.
  Cycles lat = h.mem->access(0, 0x10000, false, false);
  EXPECT_EQ(lat, c.lat_issue + c.lat_mem);
  // Now hot in L1.
  lat = h.mem->access(0, 0x10000, false, false);
  EXPECT_EQ(lat, c.lat_issue + c.lat_l1);
  // Same line, different word: still L1.
  lat = h.mem->access(0, 0x10008, false, false);
  EXPECT_EQ(lat, c.lat_issue + c.lat_l1);
}

TEST(MemorySystem, L3HitAfterOtherCoreFetch) {
  Harness h;
  h.mem->access(0, 0x10000, false, false);  // core 0 brings it to L3
  Cycles lat = h.mem->access(1, 0x10000, false, false);  // core 1: L3 hit
  EXPECT_EQ(lat, h.cfg.lat_issue + h.cfg.lat_l3);
}

TEST(MemorySystem, CacheToCacheForDirtyRemote) {
  Harness h;
  h.mem->access(0, 0x10000, true, false);  // core 0 dirties the line
  uint64_t c2c_before = h.stats.c2c_transfers;
  Cycles lat = h.mem->access(1, 0x10000, false, false);
  EXPECT_EQ(lat, h.cfg.lat_issue + h.cfg.lat_c2c);
  EXPECT_EQ(h.stats.c2c_transfers, c2c_before + 1);
}

TEST(MemorySystem, WriteInvalidatesSharers) {
  Harness h;
  h.mem->access(0, 0x10000, false, false);
  h.mem->access(1, 0x10000, false, false);  // both cores share the line
  uint64_t inv_before = h.stats.invalidations;
  h.mem->access(0, 0x10000, true, false);  // core 0 upgrades
  EXPECT_GT(h.stats.invalidations, inv_before);
  // Core 1 must re-fetch (not an L1 hit).
  uint64_t l1_before = h.stats.l1_hits;
  h.mem->access(1, 0x10000, false, false);
  EXPECT_EQ(h.stats.l1_hits, l1_before);
}

TEST(MemorySystem, TxReadTracksLine) {
  Harness h;
  h.mem->tx_begin(0, 0);
  h.mem->access(0, 0x20000, false, true);
  EXPECT_EQ(h.mem->read_lines(0).count(line_of(0x20000)), 1u);
  EXPECT_TRUE(h.mem->write_lines(0).empty());
  h.mem->tx_clear(0);
  EXPECT_TRUE(h.mem->read_lines(0).empty());
}

TEST(MemorySystem, ConflictWriteOnRemoteReadSet) {
  Harness h;
  h.mem->tx_begin(0, 0);
  h.mem->access(0, 0x20000, false, true);
  // Ctx 1 (another core) writes the same line: ctx 0 must abort.
  h.mem->access(1, 0x20000, true, false);
  ASSERT_EQ(h.aborts.size(), 1u);
  EXPECT_EQ(h.aborts[0].victim, 0u);
  EXPECT_EQ(h.aborts[0].reason, AbortReason::kConflict);
  EXPECT_EQ(h.aborts[0].line, line_of(0x20000));
  EXPECT_EQ(h.aborts[0].attacker, 1u);  // the conflicting requester
}

TEST(MemorySystem, ReadOfRemoteWriteSetAbortsWriter) {
  Harness h;
  h.mem->tx_begin(0, 0);
  h.mem->access(0, 0x20000, true, true);
  h.mem->access(1, 0x20000, false, false);
  ASSERT_EQ(h.aborts.size(), 1u);
  EXPECT_EQ(h.aborts[0].victim, 0u);
  EXPECT_EQ(h.aborts[0].reason, AbortReason::kConflict);
  EXPECT_EQ(h.aborts[0].attacker, 1u);
}

TEST(MemorySystem, ReadersDoNotConflict) {
  Harness h;
  h.mem->tx_begin(0, 0);
  h.mem->tx_begin(1, 0);
  h.mem->access(0, 0x20000, false, true);
  h.mem->access(1, 0x20000, false, true);
  EXPECT_TRUE(h.aborts.empty());
}

TEST(MemorySystem, SameCtxNoSelfConflict) {
  Harness h;
  h.mem->tx_begin(0, 0);
  h.mem->access(0, 0x20000, false, true);
  h.mem->access(0, 0x20000, true, true);
  EXPECT_TRUE(h.aborts.empty());
}

TEST(MemorySystem, WriteCapacityAbortAtL1Pressure) {
  Harness h(1);
  // L1: 32 KB, 8-way, 64 sets. Write 9 lines mapping to the same set:
  // line addresses differing by 64*... set index = line % 64.
  h.mem->tx_begin(0, 0);
  for (int i = 0; i < 9; ++i) {
    Addr a = 0x100000 + static_cast<Addr>(i) * 64 * 64;  // same L1 set
    h.mem->access(0, a, true, true);
    if (!h.aborts.empty()) break;
  }
  ASSERT_FALSE(h.aborts.empty());
  EXPECT_EQ(h.aborts[0].reason, AbortReason::kWriteCapacity);
  EXPECT_EQ(h.aborts[0].attacker, 0u);  // self-eviction: attacker == victim
}

TEST(MemorySystem, ReadsSurviveL1PressureViaL3) {
  Harness h(1);
  h.mem->tx_begin(0, 0);
  // 32 reads in the same L1 set: far beyond L1 ways but trivial for L3.
  for (int i = 0; i < 32; ++i) {
    Addr a = 0x100000 + static_cast<Addr>(i) * 64 * 64;
    h.mem->access(0, a, false, true);
  }
  EXPECT_TRUE(h.aborts.empty());
  EXPECT_EQ(h.mem->read_lines(0).size(), 32u);
}

TEST(MemorySystem, ReadCapacityAbortAtL3Pressure) {
  // Shrink the L3 to make the test fast: 64 KB, 2-way -> 512 sets... use
  // 8 KB 2-way = 64 sets of 2.
  MachineConfig cfg;
  cfg.l3 = CacheGeometry{8 * 1024, 2};
  cfg.l1 = CacheGeometry{1024, 2};  // 8 sets
  cfg.l2 = CacheGeometry{2048, 2};
  Harness h(1, cfg);
  h.mem->tx_begin(0, 0);
  // 3 reads mapping to the same L3 set (set = line % 64): evicts a tx line.
  for (int i = 0; i < 3; ++i) {
    Addr a = 0x100000 + static_cast<Addr>(i) * 64 * 64;
    h.mem->access(0, a, false, true);
  }
  ASSERT_FALSE(h.aborts.empty());
  EXPECT_EQ(h.aborts[0].reason, AbortReason::kReadCapacity);
}

TEST(MemorySystem, SmtSharesL1) {
  // 8 contexts on 4 cores: ctx 0 and 4 share core 0's L1.
  Harness h(8);
  h.mem->access(0, 0x30000, false, false);
  Cycles lat = h.mem->access(4, 0x30000, false, false);
  EXPECT_EQ(lat, h.cfg.lat_issue + h.cfg.lat_l1);  // sibling L1 hit
  Cycles lat2 = h.mem->access(1, 0x30000, false, false);
  EXPECT_EQ(lat2, h.cfg.lat_issue + h.cfg.lat_l3);  // other core: L3
}

TEST(MemorySystem, StatsCountAccesses) {
  Harness h;
  h.mem->access(0, 0x1000, false, false);
  h.mem->access(0, 0x1000, true, false);
  EXPECT_EQ(h.stats.loads, 1u);
  EXPECT_EQ(h.stats.stores, 1u);
  EXPECT_EQ(h.stats.accesses(), 2u);
}

// After a transaction ends, by commit or by any abort, no line it touched
// keeps the context's bit: neither a write bit in its core's L1 nor a read
// bit in the L3. tx_clear clears them through the slots it recorded, so the
// four ways a transaction ends must each leave them clean.
void expect_untracked(Harness& h, CtxId ctx, const std::vector<Addr>& addrs) {
  const uint8_t bit = static_cast<uint8_t>(1u << ctx);
  for (Addr a : addrs) {
    uint64_t line = line_of(a);
    if (const CacheLine* l = h.mem->l1(h.mem->core_of(ctx)).probe(line)) {
      EXPECT_EQ(l->tx_write_mask & bit, 0) << "L1 write bit on line " << line;
    }
    if (const CacheLine* l = h.mem->l3().probe(line)) {
      EXPECT_EQ(l->tx_read_mask & bit, 0) << "L3 read bit on line " << line;
    }
  }
  EXPECT_TRUE(h.mem->read_lines(ctx).empty());
  EXPECT_TRUE(h.mem->write_lines(ctx).empty());
}

TEST(MemorySystem, CommitLeavesNoTxBits) {
  Harness h;
  std::vector<Addr> addrs;
  h.mem->tx_begin(0, 0);
  for (int i = 0; i < 24; ++i) {
    Addr a = 0x50000 + static_cast<Addr>(i) * 64;
    addrs.push_back(a);
    h.mem->access(0, a, i % 3 == 0, true);
    h.mem->access(0, a, false, true);  // re-reads keep their first slot
  }
  const uint64_t first = line_of(addrs[0]);  // read, then written
  EXPECT_EQ(h.mem->l1(0).probe(first)->tx_write_mask, 0b1);
  EXPECT_EQ(h.mem->l3().probe(first)->tx_read_mask, 0b1);
  h.mem->tx_clear(0);  // commit
  EXPECT_TRUE(h.aborts.empty());
  expect_untracked(h, 0, addrs);
}

TEST(MemorySystem, ConflictAbortLeavesNoTxBits) {
  Harness h;
  std::vector<Addr> addrs;
  h.mem->tx_begin(0, 0);
  for (int i = 0; i < 16; ++i) {
    Addr a = 0x60000 + static_cast<Addr>(i) * 64;
    addrs.push_back(a);
    h.mem->access(0, a, i % 2 == 0, true);
  }
  h.mem->access(1, addrs[4], true, false);  // core 1 steals a written line
  ASSERT_EQ(h.aborts.size(), 1u);
  EXPECT_EQ(h.aborts[0].reason, AbortReason::kConflict);
  EXPECT_FALSE(h.mem->tx_active(0));
  expect_untracked(h, 0, addrs);
}

TEST(MemorySystem, ReadCapacityAbortLeavesNoTxBits) {
  MachineConfig cfg;
  cfg.l3 = CacheGeometry{8 * 1024, 2};  // 64 sets of 2
  cfg.l1 = CacheGeometry{1024, 2};
  cfg.l2 = CacheGeometry{2048, 2};
  Harness h(1, cfg);
  std::vector<Addr> addrs;
  h.mem->tx_begin(0, 0);
  for (int i = 0; i < 8; ++i) {  // tracked lines outside the pressured set
    Addr a = 0x100040 + static_cast<Addr>(i) * 64;
    addrs.push_back(a);
    h.mem->access(0, a, i % 2 == 0, true);
  }
  for (int i = 0; i < 3; ++i) {  // three reads into one L3 set
    Addr a = 0x100000 + static_cast<Addr>(i) * 64 * 64;
    addrs.push_back(a);
    h.mem->access(0, a, false, true);
  }
  ASSERT_EQ(h.aborts.size(), 1u);
  EXPECT_EQ(h.aborts[0].reason, AbortReason::kReadCapacity);
  expect_untracked(h, 0, addrs);
}

TEST(MemorySystem, WriteCapacityAbortInOwnFillLeavesNoTxBits) {
  Harness h(1);
  std::vector<Addr> addrs;
  h.mem->tx_begin(0, 0);
  for (int i = 0; i < 8; ++i) {  // reads and writes outside the pressured set
    Addr a = 0x200040 + static_cast<Addr>(i) * 64;
    addrs.push_back(a);
    h.mem->access(0, a, i % 2 == 0, true);
  }
  // Nine writes into one 8-way L1 set: the ninth fill evicts a line of the
  // requester's own write set, and the abort runs inside that fill.
  for (int i = 0; i < 9 && h.aborts.empty(); ++i) {
    Addr a = 0x200000 + static_cast<Addr>(i) * 64 * 64;
    addrs.push_back(a);
    h.mem->access(0, a, true, true);
  }
  ASSERT_EQ(h.aborts.size(), 1u);
  EXPECT_EQ(h.aborts[0].reason, AbortReason::kWriteCapacity);
  EXPECT_EQ(h.aborts[0].attacker, 0u);
  expect_untracked(h, 0, addrs);
  // The next transaction tracks and clears the same lines cleanly.
  h.mem->tx_begin(0, 1);
  for (Addr a : addrs) h.mem->access(0, a, false, true);
  h.mem->tx_clear(0);
  expect_untracked(h, 0, addrs);
}

}  // namespace
