#include <gtest/gtest.h>

#include "sim/machine.h"
#include "sync/spinlock.h"

namespace {

using namespace tsx::sim;
using namespace tsx::sync;

MachineConfig quiet() {
  MachineConfig cfg;
  cfg.interrupts_enabled = false;
  return cfg;
}

constexpr Addr kLock = 0x1000;
constexpr Addr kData = 0x2000;

TEST(TicketSpinLock, MutualExclusionUnderContention) {
  Machine m(quiet(), 4);
  m.prefault(kLock, 4096);
  m.prefault(kData, 4096);
  TicketSpinLock lock(m, kLock);
  lock.init();
  const int iters = 200;
  for (CtxId t = 0; t < 4; ++t) {
    m.set_thread(t, [&] {
      for (int i = 0; i < iters; ++i) {
        lock.lock();
        Word v = m.load(kData);
        m.compute(20);  // widen the race window
        m.store(kData, v + 1);
        lock.unlock();
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek(kData), 4u * iters);
}

TEST(TicketSpinLock, FifoOrderAmongWaiters) {
  Machine m(quiet(), 3);
  m.prefault(kLock, 4096);
  m.prefault(kData, 4096);
  TicketSpinLock lock(m, kLock);
  lock.init();
  std::vector<int> order;
  for (CtxId t = 0; t < 3; ++t) {
    m.set_thread(t, [&, t] {
      m.compute(1 + t * 10);  // staggered arrival
      lock.lock();
      order.push_back(static_cast<int>(t));
      m.compute(5000);  // hold while others queue up
      lock.unlock();
    });
  }
  m.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TasSpinLock, MutualExclusion) {
  Machine m(quiet(), 4);
  m.prefault(kLock, 4096);
  m.prefault(kData, 4096);
  TasSpinLock lock(m, kLock);
  lock.init();
  for (CtxId t = 0; t < 4; ++t) {
    m.set_thread(t, [&] {
      for (int i = 0; i < 100; ++i) {
        lock.lock();
        Word v = m.load(kData);
        m.compute(10);
        m.store(kData, v + 1);
        lock.unlock();
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek(kData), 400u);
}

TEST(SerialRwLock, WriterExcludesWriter) {
  Machine m(quiet(), 2);
  m.prefault(kLock, 4096);
  m.prefault(kData, 4096);
  SerialRwLock lock(m, kLock);
  lock.init();
  for (CtxId t = 0; t < 2; ++t) {
    m.set_thread(t, [&] {
      for (int i = 0; i < 100; ++i) {
        lock.write_lock();
        Word v = m.load(kData);
        m.compute(15);
        m.store(kData, v + 1);
        lock.write_unlock();
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek(kData), 200u);
}

TEST(SerialRwLock, ReadCanLockTracksWriter) {
  Machine m(quiet(), 1);
  m.prefault(kLock, 4096);
  SerialRwLock lock(m, kLock);
  lock.init();
  m.set_thread(0, [&] {
    EXPECT_TRUE(lock.read_can_lock());
    lock.write_lock();
    EXPECT_FALSE(lock.read_can_lock());
    lock.write_unlock();
    EXPECT_TRUE(lock.read_can_lock());
  });
  m.run();
}

TEST(SerialRwLock, WriterWaitsForReaders) {
  Machine m(quiet(), 2);
  m.prefault(kLock, 4096);
  m.prefault(kData, 4096);
  SerialRwLock lock(m, kLock);
  lock.init();
  Cycles writer_acquired = 0, reader_released = 0;
  m.set_thread(0, [&] {
    lock.read_lock();
    m.compute(20'000);
    reader_released = m.now();
    lock.read_unlock();
  });
  m.set_thread(1, [&] {
    m.compute(2000);  // arrive well after the reader holds the lock
    lock.write_lock();
    writer_acquired = m.now();
    lock.write_unlock();
  });
  m.run();
  EXPECT_GT(writer_acquired, reader_released);
}

}  // namespace
