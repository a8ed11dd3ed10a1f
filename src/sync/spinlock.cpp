#include "sync/spinlock.h"

namespace tsx::sync {

void TicketSpinLock::lock() {
  Word my_ticket = m_.fetch_add(next_addr(), 1);
  while (m_.load(serving_addr()) != my_ticket) {
    m_.pause();
  }
}

void TicketSpinLock::unlock() {
  Word serving = m_.load(serving_addr());
  m_.store(serving_addr(), serving + 1);
}

void TasSpinLock::lock() {
  for (;;) {
    if (m_.load(base_) == 0 && m_.cas(base_, 0, 1)) return;
    m_.pause();
  }
}

void TasSpinLock::unlock() { m_.store(base_, 0); }

bool SerialRwLock::read_can_lock() { return m_.load(writer_addr()) == 0; }

void SerialRwLock::read_lock() {
  for (;;) {
    m_.fetch_add(reader_addr(), 1);
    if (m_.load(writer_addr()) == 0) return;
    // A writer is present or arrived: back out and wait.
    m_.fetch_add(reader_addr(), static_cast<Word>(-1));
    while (m_.load(writer_addr()) != 0) m_.pause();
  }
}

void SerialRwLock::read_unlock() {
  m_.fetch_add(reader_addr(), static_cast<Word>(-1));
}

void SerialRwLock::write_lock() {
  while (!m_.cas(writer_addr(), 0, 1)) m_.pause();
  while (m_.load(reader_addr()) != 0) m_.pause();
}

void SerialRwLock::write_unlock() { m_.store(writer_addr(), 0); }

}  // namespace tsx::sync
