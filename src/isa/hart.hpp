#pragma once

// Hart — the RV64IM + xBGAS interpreter core (the repo's stand-in for the
// Spike-based simulation environment of paper §5.1).
//
// Harvard-style simplification: the program lives in its own instruction
// store (a built Program), while data addresses index the PE's arena through
// a GlobalMemoryPort. The port performs the §3.2 dispatch — e-register value
// 0 is a local access, any other object ID goes through the OLB to a peer's
// memory — and returns modeled cycles, which the hart accumulates together
// with its own per-instruction costs.

#include <cstdint>

#include "isa/builder.hpp"
#include "isa/port.hpp"
#include "isa/regfile.hpp"

namespace xbgas::isa {

struct HartConfig {
  std::uint64_t base_op_cycles = 1;
  std::uint64_t branch_taken_extra = 1;
  std::uint64_t mul_cycles = 3;
  std::uint64_t div_cycles = 20;
  /// Paper §3.2: the extension can be disabled, leaving a standard RV64I
  /// core. Executing any e-instruction while disabled is an illegal
  /// instruction.
  bool xbgas_enabled = true;
};

struct HartStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t remote_loads = 0;   ///< nonzero-object e-form loads
  std::uint64_t remote_stores = 0;  ///< nonzero-object e-form stores
  std::uint64_t branches_taken = 0;
};

class Hart {
 public:
  enum class Halt { kNone, kEcall, kEbreak, kMaxSteps };

  explicit Hart(GlobalMemoryPort& port, const HartConfig& config = HartConfig{});

  /// Install a program and reset pc to 0 (registers are preserved so callers
  /// can pass arguments in x10..x17, the RISC-V a0..a7 convention).
  void load_program(Program program);

  /// Reset pc, clear registers, clear statistics.
  void reset();

  RegFile& regs() { return regs_; }
  const RegFile& regs() const { return regs_; }

  /// Execute one instruction. Returns kNone while running.
  Halt step();

  /// Run until ecall/ebreak or the step limit.
  Halt run(std::uint64_t max_steps = 100'000'000);

  std::uint64_t pc() const { return pc_; }
  std::uint64_t cycles() const { return cycles_; }
  const HartStats& stats() const { return stats_; }
  const HartConfig& config() const { return config_; }

 private:
  Halt execute(const Instruction& inst);
  void access_memory(const Instruction& inst, const OpInfo& row);

  GlobalMemoryPort& port_;
  HartConfig config_;
  Program program_;
  RegFile regs_;
  std::uint64_t pc_ = 0;
  std::uint64_t cycles_ = 0;
  HartStats stats_;
};

}  // namespace xbgas::isa
