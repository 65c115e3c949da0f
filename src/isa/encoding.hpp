#pragma once

// RV64I/M + xBGAS binary encodings.
//
// Standard instructions follow the RISC-V user-level ISA v2.0 formats
// (R/I/S/B/U/J). The xBGAS extension instructions are encoded in the
// RISC-V *custom* opcode space — the published xbgas-archspec repository is
// unavailable offline, so the exact opcode values are a documented
// substitution (DESIGN.md §7); the three instruction *classes* and their
// operand semantics follow paper §3.2 exactly:
//
//   custom-0 (0x0B)  base e-loads   (I-type; e-register implied by rs1)
//   custom-1 (0x2B)  base e-stores  (S-type; e-register implied by rs1)
//   custom-2 (0x5B)  raw er-loads/stores (R-type; explicit e-register)
//   custom-3 (0x7B)  address management (eaddie / eaddix)
//
// The op table (instruction.hpp) composes each op's match word from these
// fields; nothing else names them per op.

#include <cstdint>

namespace xbgas::isa {

// Major opcode field (bits [6:0]).
enum : std::uint32_t {
  kOpLoad = 0x03,
  kOpOpImm = 0x13,
  kOpAuipc = 0x17,
  kOpOpImm32 = 0x1B,
  kOpStore = 0x23,
  kOpOp = 0x33,
  kOpLui = 0x37,
  kOpOp32 = 0x3B,
  kOpBranch = 0x63,
  kOpJalr = 0x67,
  kOpJal = 0x6F,
  kOpSystem = 0x73,
  // xBGAS custom space:
  kOpXbgasLoad = 0x0B,   // custom-0
  kOpXbgasStore = 0x2B,  // custom-1
  kOpXbgasRaw = 0x5B,    // custom-2
  kOpXbgasAddr = 0x7B,   // custom-3
};

// funct3 values for loads/stores (shared by RV64I and the xBGAS e-forms).
enum : std::uint32_t {
  kWidthB = 0b000,
  kWidthH = 0b001,
  kWidthW = 0b010,
  kWidthD = 0b011,
  kWidthBU = 0b100,
  kWidthHU = 0b101,
  kWidthWU = 0b110,
};

// funct7 values in the xBGAS raw-op space (custom-2).
enum : std::uint32_t {
  kRawFunct7Load = 0x00,
  kRawFunct7Store = 0x01,
};

// funct3 values in the xBGAS address-management space (custom-3).
enum : std::uint32_t {
  kAddrFunct3Eaddie = 0b000,  // e[rd]  <- x[rs1] + imm
  kAddrFunct3Eaddix = 0b001,  // x[rd]  <- e[rs1] + imm
};

}  // namespace xbgas::isa
