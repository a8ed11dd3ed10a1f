#pragma once
// TL2 (Dice, Shalev, Shavit, DISC 2006): word-based, time-based STM with
// commit-time locking and no timestamp extension. Included because the paper
// compares against the Yoo et al. RTM-vs-TL2 study and reports that TinySTM
// consistently outperforms TL2 — `bench/ablation_stm_design` reproduces that
// claim on this machine model.

#include <cstdint>
#include <vector>

#include "stm/common.h"
#include "util/flat_table.h"

namespace tsx::stm {

class Tl2 final : public StmSystem {
 public:
  Tl2(Machine& m, Addr region_base, StmConfig cfg = {});

  const char* name() const override { return "TL2"; }
  void init() override;

  void tx_start(CtxId ctx) override;
  Word tx_read(CtxId ctx, Addr addr) override;
  void tx_write(CtxId ctx, Addr addr, Word value) override;
  void tx_commit(CtxId ctx) override;
  void tx_abort_cleanup(CtxId ctx) override;
  bool tx_active(CtxId ctx) const override { return tx_[ctx].active; }

 private:
  struct ReadEntry {
    Addr lock_addr;
    Word version;
  };
  struct TxDesc {
    bool active = false;
    Word rv = 0;
    std::vector<ReadEntry> read_set;
    std::vector<std::pair<Addr, Word>> write_list;
    util::WriteIndex write_index;
    std::vector<std::pair<Addr, Word>> held;  // commit-time: lock addr, prev
    util::FlatSet acquired_scratch;  // commit-time stripe dedup (reused)
    LogRing log;
  };

  void release_held(TxDesc& tx, Word new_version, bool restore_prev);

  Addr clock_addr_;
  LockTable locks_;
  std::array<TxDesc, sim::kMaxCtxs> tx_;
};

}  // namespace tsx::stm
