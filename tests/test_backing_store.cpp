#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/backing_store.h"
#include "sim/rng.h"

namespace {

using tsx::sim::Addr;
using tsx::sim::BackingStore;
using tsx::sim::kPageBytes;

TEST(BackingStore, ZeroInitialized) {
  BackingStore bs;
  EXPECT_EQ(bs.peek(0x1000), 0u);
  EXPECT_EQ(bs.peek(0xdeadbe00), 0u);
}

TEST(BackingStore, PokePeekRoundTrip) {
  BackingStore bs;
  bs.poke(0x2000, 0x1234567890abcdefull);
  EXPECT_EQ(bs.peek(0x2000), 0x1234567890abcdefull);
  EXPECT_EQ(bs.peek(0x2008), 0u);
}

TEST(BackingStore, UnalignedAccessThrows) {
  BackingStore bs;
  EXPECT_THROW(bs.peek(0x2001), std::invalid_argument);
  EXPECT_THROW(bs.poke(0x2004, 1), std::invalid_argument);
}

TEST(BackingStore, PagesStartAbsent) {
  BackingStore bs;
  EXPECT_FALSE(bs.present(0x3000));
  bs.poke(0x3000, 7);  // value write does not imply presence
  EXPECT_FALSE(bs.present(0x3000));
  bs.make_present(0x3000);
  EXPECT_TRUE(bs.present(0x3000));
  // Presence is per page.
  EXPECT_TRUE(bs.present(0x3000 + kPageBytes - 8));
  EXPECT_FALSE(bs.present(0x3000 + kPageBytes));
}

TEST(BackingStore, PrefaultCoversRange) {
  BackingStore bs;
  bs.prefault(0x10000, 3 * kPageBytes);
  EXPECT_TRUE(bs.present(0x10000));
  EXPECT_TRUE(bs.present(0x10000 + 2 * kPageBytes));
  EXPECT_FALSE(bs.present(0x10000 + 3 * kPageBytes));
}

TEST(BackingStore, PrefaultPartialPagesRoundOut) {
  BackingStore bs;
  bs.prefault(0x20000 + 8, 16);  // straddles nothing, tiny range
  EXPECT_TRUE(bs.present(0x20000));
  bs.prefault(0x30000 + kPageBytes - 8, 16);  // straddles a boundary
  EXPECT_TRUE(bs.present(0x30000));
  EXPECT_TRUE(bs.present(0x30000 + kPageBytes));
}

TEST(BackingStore, PrefaultZeroBytesIsNoop) {
  BackingStore bs;
  bs.prefault(0x40000, 0);
  EXPECT_FALSE(bs.present(0x40000));
}

TEST(BackingStore, PrefaultMaterializesNothing) {
  BackingStore bs;
  const Addr base = 0x100000;
  const uint64_t bytes = 8ull << 20;
  bs.prefault(base, bytes);
  EXPECT_EQ(bs.pages_allocated(), 0u);
  EXPECT_TRUE(bs.present(base));
  EXPECT_TRUE(bs.present(base + bytes - 8));
  EXPECT_EQ(bs.peek(base), 0u);
  EXPECT_EQ(bs.peek(base + bytes - 8), 0u);
  EXPECT_FALSE(bs.present(base + bytes));
  EXPECT_FALSE(bs.present(base - 8));
  // present() and peek() are pure queries.
  EXPECT_EQ(bs.pages_allocated(), 0u);
}

TEST(BackingStore, FirstTouchMaterializesOnePage) {
  BackingStore bs;
  const Addr base = 0x100000;
  bs.prefault(base, 8ull << 20);
  const Addr a = base + 100 * kPageBytes + 24;
  bs.poke(a, 42);
  EXPECT_EQ(bs.pages_allocated(), 1u);
  EXPECT_EQ(bs.peek(a), 42u);
  EXPECT_TRUE(bs.present(a));
  EXPECT_EQ(bs.peek(a + kPageBytes), 0u);
  EXPECT_TRUE(bs.present(a + kPageBytes));
  // A simulated access's presence lookup is a first touch too.
  BackingStore::Page* p = bs.lookup_present(base + 7 * kPageBytes);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->present);
  EXPECT_EQ(bs.pages_allocated(), 2u);
  EXPECT_EQ(bs.lookup_present(base + 7 * kPageBytes + 8), p);
  EXPECT_EQ(bs.pages_allocated(), 2u);
  // Outside every interval it finds nothing and materializes nothing.
  EXPECT_EQ(bs.lookup_present(base - kPageBytes), nullptr);
  EXPECT_EQ(bs.pages_allocated(), 2u);
}

TEST(BackingStore, PrefaultMarksEarlierPokedPagePresent) {
  BackingStore bs;
  const Addr base = 0x200000;
  bs.poke(base + 3 * kPageBytes, 5);
  bs.poke(base + 64 * kPageBytes, 6);  // outside the interval below
  ASSERT_FALSE(bs.present(base + 3 * kPageBytes));
  bs.prefault(base, 8 * kPageBytes);
  EXPECT_TRUE(bs.present(base + 3 * kPageBytes));
  EXPECT_EQ(bs.peek(base + 3 * kPageBytes), 5u);
  EXPECT_NE(bs.lookup_present(base + 3 * kPageBytes), nullptr);
  EXPECT_FALSE(bs.present(base + 64 * kPageBytes));
  EXPECT_EQ(bs.lookup_present(base + 64 * kPageBytes), nullptr);
  EXPECT_EQ(bs.pages_allocated(), 2u);
}

// Intervals merge when they touch or overlap, whatever order they arrive
// in; every page of their union stays present and gaps stay absent.
TEST(BackingStore, AdjacentAndOverlappingPrefaultsStayPresent) {
  const Addr base = 0x1000000;
  auto page = [&](uint64_t i) { return base + i * kPageBytes; };
  BackingStore bs;
  bs.prefault(page(10), 2 * kPageBytes);   // [10, 12)
  bs.prefault(page(12), 2 * kPageBytes);   // adjacent: [10, 14)
  bs.prefault(page(13), 3 * kPageBytes);   // overlapping: [10, 16)
  bs.prefault(page(20), kPageBytes);       // apart: [20, 21)
  bs.prefault(page(2), 3 * kPageBytes);    // before both: [2, 5)
  bs.prefault(page(11), kPageBytes);       // inside: no change
  bs.prefault(page(16), 4 * kPageBytes);   // bridges: [10, 21)
  std::vector<bool> want(32, false);
  for (uint64_t i = 2; i < 5; ++i) want[i] = true;
  for (uint64_t i = 10; i < 21; ++i) want[i] = true;
  for (uint64_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(bs.present(page(i)), want[i]) << "page " << i;
  }
  EXPECT_EQ(bs.pages_allocated(), 0u);

  // Random intervals and pokes against a per-page reference.
  tsx::sim::Rng rng(7);
  BackingStore r;
  std::vector<bool> ref(96, false);
  std::vector<bool> poked(96, false);
  for (int step = 0; step < 200; ++step) {
    uint64_t first = rng.below(ref.size());
    if (rng.below(4) == 0) {
      r.poke(page(first), first + 1);
      poked[first] = true;
      continue;
    }
    uint64_t n = 1 + rng.below(6);
    r.prefault(page(first), n * kPageBytes);
    for (uint64_t i = first; i < first + n && i < ref.size(); ++i) ref[i] = true;
  }
  uint64_t npoked = 0;
  for (uint64_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(r.present(page(i)), ref[i]) << "page " << i;
    EXPECT_EQ(r.peek(page(i)), poked[i] ? i + 1 : 0) << "page " << i;
    npoked += poked[i];
  }
  EXPECT_EQ(r.pages_allocated(), npoked);
}

TEST(BackingStore, DistantAddressesIndependent) {
  BackingStore bs;
  bs.poke(0x0004'0000'0000ull, 1);
  bs.poke(0x0001'0000'0000ull, 2);
  EXPECT_EQ(bs.peek(0x0004'0000'0000ull), 1u);
  EXPECT_EQ(bs.peek(0x0001'0000'0000ull), 2u);
}

}  // namespace
