// Snitch scalar core: a small single-issue in-order RV32IM(F) interpreter.
// It executes scalar instructions at 1 IPC, forwards vector instructions to
// its Spatz unit (stalling when the vector instruction queue is full), and
// performs scalar memory accesses over the same TCDM fabric as the VLSU
// (local banks or narrow remote requests). Register readiness is tracked
// with per-register ready cycles, allowing a few outstanding scalar loads.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/cluster/barrier.hpp"
#include "src/cluster/tile_services.hpp"
#include "src/isa/program.hpp"
#include "src/spatz/frontend.hpp"

namespace tcdm {

/// Outstanding scalar loads / AMOs a Snitch can track (its pending table).
inline constexpr unsigned kMaxScalarLoads = 4;
/// Integer multiply result latency in cycles.
inline constexpr unsigned kMulLatency = 3;
/// Scalar float op result latency in cycles.
inline constexpr unsigned kScalarFpuLatency = 4;
/// Bubble cycles after a taken branch.
inline constexpr unsigned kTakenBranchPenalty = 1;

class Snitch {
 public:
  Snitch(CoreId hartid, unsigned num_harts) : hartid_(hartid), num_harts_(num_harts) {}

  void attach_stats(StatsRegistry& reg, const std::string& prefix);

  /// Attach the program and reset architectural state. ABI at reset:
  /// a0 = hartid, a1 = number of harts. The core begins fetching at
  /// `start_cycle` (wake-up skew).
  void load_program(const Program* prog, Cycle start_cycle = 0);

  /// Detach the program and clear architectural state. Every field the next
  /// run can observe is re-initialized by the load_program() that must
  /// precede it (docs/ARCHITECTURE.md, P2).
  void reset() { load_program(nullptr, 0); }

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] std::uint64_t instrs_executed() const noexcept {
    return static_cast<std::uint64_t>(instrs_.value());
  }

  void cycle(Cycle now, TileServices& tile, SpatzFrontend& spatz, Barrier& barrier);

  /// Event-driven stepping (docs/ARCHITECTURE.md, EV1/EV2): earliest cycle at
  /// which cycle() could change state, absent external events. Barrier- and
  /// drain-wait spans declare their per-cycle stall counters into `plan`.
  /// Conservative by design: any actively-executing instruction reports
  /// `now` (a too-early wakeup only forfeits a skip; a too-late one would be
  /// a contract violation).
  [[nodiscard]] Cycle earliest_wakeup(Cycle now, const SpatzFrontend& spatz,
                                      const Barrier& barrier, SkipPlan& plan) const;

  // ---- memory response delivery ----
  void fill_scalar(std::uint16_t id, Word data, Cycle now);
  void store_ack() {
    assert(outstanding_stores_ > 0);
    --outstanding_stores_;
  }

  /// Scalar-side memory quiescence (pending loads and posted stores drained).
  [[nodiscard]] bool drained() const noexcept {
    return pending_count_ == 0 && outstanding_stores_ == 0;
  }

  // Architectural state inspection (tests).
  [[nodiscard]] std::uint32_t x(unsigned r) const { return x_[r]; }
  [[nodiscard]] float f(unsigned r) const { return f_[r]; }
  [[nodiscard]] std::size_t pc() const noexcept { return pc_; }

 private:
  struct PendingLoad {
    bool valid = false;
    std::uint8_t reg = 0;
    bool is_float = false;
  };

  [[nodiscard]] bool x_ready(unsigned r, Cycle now) const {
    return r == 0 || x_ready_[r] <= now;
  }
  [[nodiscard]] bool f_ready(unsigned r, Cycle now) const { return f_ready_[r] <= now; }
  void set_x(unsigned r, std::uint32_t v) {
    if (r != 0) x_[r] = v;
  }

  /// Issue a scalar memory request; returns false to retry next cycle.
  [[nodiscard]] bool send_scalar_mem(Cycle now, TileServices& tile, Addr addr, bool write,
                                     bool amo, Word wdata, std::uint16_t pending_id);
  [[nodiscard]] int alloc_pending();

  bool exec_vector(const Instr& i, Cycle now, SpatzFrontend& spatz);

  CoreId hartid_;
  unsigned num_harts_;
  const Program* prog_ = nullptr;

  std::size_t pc_ = 0;
  std::array<std::uint32_t, kNumXRegs> x_{};
  std::array<float, kNumFRegs> f_{};
  std::array<Cycle, kNumXRegs> x_ready_{};
  std::array<Cycle, kNumFRegs> f_ready_{};
  std::array<PendingLoad, kMaxScalarLoads> pending_{};
  unsigned pending_count_ = 0;
  unsigned outstanding_stores_ = 0;
  Cycle stall_until_ = 0;
  bool halted_ = false;

  // Vector configuration state (vsetvli).
  unsigned vl_ = 0;
  Lmul lmul_ = Lmul::m1;

  // Barrier state.
  bool barrier_arrived_ = false;
  unsigned barrier_target_gen_ = 0;

  Counter instrs_;
  Counter scalar_flops_;
  Counter load_words_;
  Counter store_words_;
  Counter stall_viq_;
  Counter stall_reg_;
  Counter stall_mem_;
  Counter barrier_wait_cycles_;
};

}  // namespace tcdm
