#pragma once
// Classic synchronization primitives implemented on *simulated* memory, so
// their coherence behaviour (lock-line ping-pong, hold-and-wait) costs what
// it costs on the modeled machine. These are the paper's comparison points
// in Table I and the lock-based TM fallback path.
//
// Each primitive occupies one or more words of simulated memory that the
// caller provides (typically from the simulated heap, one per cache line to
// avoid false sharing).

#include "sim/machine.h"
#include "sim/types.h"

namespace tsx::sync {

using sim::Addr;
using sim::Machine;
using sim::Word;

// Ticket spinlock, like the pre-queued-spinlock Linux kernel
// arch/x86/include/asm/spinlock.h the paper benchmarks against.
// Layout: word 0 = next ticket, word 1 = now serving.
class TicketSpinLock {
 public:
  static constexpr uint64_t kFootprintBytes = 2 * sim::kWordBytes;

  TicketSpinLock(Machine& m, Addr base) : m_(m), base_(base) {}

  // Initializes the lock words (host-side, no cost).
  void init() {
    m_.poke(next_addr(), 0);
    m_.poke(serving_addr(), 0);
  }

  void lock();
  void unlock();

 private:
  Addr next_addr() const { return base_; }
  Addr serving_addr() const { return base_ + sim::kWordBytes; }

  Machine& m_;
  Addr base_;
};

// Test-and-test-and-set spinlock on a single word (0 = free, 1 = held).
class TasSpinLock {
 public:
  static constexpr uint64_t kFootprintBytes = sim::kWordBytes;

  TasSpinLock(Machine& m, Addr base) : m_(m), base_(base) {}

  void init() { m_.poke(base_, 0); }

  void lock();
  void unlock();

 private:
  Machine& m_;
  Addr base_;
};

// Reader/writer lock used as the RTM serial fallback (Algorithm 1 in the
// paper). Writer-preferring would risk starving the elided path, so this is
// a simple fair-enough implementation:
//   word 0: writer flag (0/1), word 1: reader count.
//
// The key operation for lock elision is `read_can_lock()` — a plain load of
// the writer word. An RTM transaction performs it *inside* the transaction,
// which puts the lock line into the tx read-set: a later write_lock() by a
// thread entering the fallback conflicts and aborts all subscribed
// transactions (the paper's "lock aborts").
class SerialRwLock {
 public:
  static constexpr uint64_t kFootprintBytes = 2 * sim::kWordBytes;

  SerialRwLock(Machine& m, Addr base) : m_(m), base_(base) {}

  void init() {
    m_.poke(writer_addr(), 0);
    m_.poke(reader_addr(), 0);
  }

  // Plain simulated load of the writer word; safe inside a transaction.
  bool read_can_lock();

  void read_lock();
  void read_unlock();
  void write_lock();
  void write_unlock();

 private:
  Addr writer_addr() const { return base_; }
  Addr reader_addr() const { return base_ + sim::kWordBytes; }

  Machine& m_;
  Addr base_;
};

}  // namespace tsx::sync
