#pragma once

// The RV64IM + xBGAS instruction set as one table: each Op has one OpInfo
// row giving its mnemonic, operand format, match word (encoding.hpp's
// opcode and funct fields), memory access width, zero-extension and xBGAS
// class. The encoder, decoder, disassembler, text assembler, program builder
// and hart all read that row, so a new op is one row here plus what it does
// in the hart's semantic switch (hart.cpp).

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "common/error.hpp"
#include "isa/encoding.hpp"

namespace xbgas::isa {

enum class Op : std::uint8_t {
  // RV64I
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLd, kLbu, kLhu, kLwu,
  kSb, kSh, kSw, kSd,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kAddiw, kSlliw, kSrliw, kSraiw,
  kAddw, kSubw, kSllw, kSrlw, kSraw,
  // RV64M
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  kMulw, kDivw, kDivuw, kRemw, kRemuw,
  // System
  kEcall, kEbreak,
  // xBGAS base integer e-loads/stores (implicit e-register = e[rs1 index])
  kElb, kElh, kElw, kEld, kElbu, kElhu, kElwu,
  kEsb, kEsh, kEsw, kEsd,
  // xBGAS raw integer loads/stores (explicit e-register operand, no imm)
  kErlb, kErlh, kErlw, kErld, kErlbu, kErlhu, kErlwu,
  kErsb, kErsh, kErsw, kErsd,
  // xBGAS address management
  kEaddie, kEaddix,
  kCount,
};

struct Instruction {
  Op op = Op::kEcall;
  std::uint8_t rd = 0;   ///< destination register index (x or e space per op)
  std::uint8_t rs1 = 0;  ///< first source register index
  std::uint8_t rs2 = 0;  ///< second source / ext register index for raw ops
  std::int64_t imm = 0;  ///< sign-extended immediate (0 for R-type)

  bool operator==(const Instruction&) const = default;
};

/// Operand layout, shared by the encoded word and the assembly text.
enum class Format : std::uint8_t {
  kR,         ///< op rd, rs1, rs2
  kI,         ///< op rd, rs1, imm           (12-bit ALU immediate)
  kShift64,   ///< op rd, rs1, shamt         (6-bit shamt, funct6)
  kShift32,   ///< op rd, rs1, shamt         (5-bit shamt, funct7)
  kLoad,      ///< op rd, imm(rs1)           (loads, e-loads and jalr)
  kStore,     ///< op rs2, imm(rs1)          (stores and e-stores)
  kRawLoad,   ///< op rd, rs1, e[rs2]
  kRawStore,  ///< op rs2, rs1, e[rd]        (the e-register rides in rd)
  kBranch,    ///< op rs1, rs2, offset
  kJal,       ///< op rd, offset
  kU,         ///< op rd, imm                (imm has its low 12 bits zero)
  kEaddie,    ///< op e[rd], rs1, imm
  kEaddix,    ///< op rd, e[rs1], imm
  kSystem,    ///< op                        (the match word is the whole word)
};

struct OpInfo {
  Op op;
  const char* mnemonic;     ///< lower-case, e.g. "eld"
  Format format;
  std::uint32_t match;      ///< the word with every operand field zero
  std::uint8_t width;       ///< memory access bytes; 0 for non-memory ops
  bool zero_extend;         ///< a narrow load zero-extends (lbu, elhu, ...)
  bool xbgas;               ///< illegal while the xBGAS extension is disabled
};

namespace detail {

using enum Format;

/// opcode | funct3 << 12 | funct7 << 25.
constexpr std::uint32_t word(std::uint32_t opcode, std::uint32_t funct3 = 0,
                             std::uint32_t funct7 = 0) {
  return opcode | funct3 << 12 | funct7 << 25;
}

// clang-format off
inline constexpr OpInfo kOpTable[] = {
  // {op, mnemonic, format, match, width, zero-extend, xBGAS}; a shift64
  // row's funct6 sits in the funct7 field (srai: 0x20 = funct6 0x10).
  {Op::kLui,    "lui",    kU,        word(kOpLui),                                0, false, false},
  {Op::kAuipc,  "auipc",  kU,        word(kOpAuipc),                              0, false, false},
  {Op::kJal,    "jal",    kJal,      word(kOpJal),                                0, false, false},
  {Op::kJalr,   "jalr",   kLoad,     word(kOpJalr, 0b000),                        0, false, false},
  {Op::kBeq,    "beq",    kBranch,   word(kOpBranch, 0b000),                      0, false, false},
  {Op::kBne,    "bne",    kBranch,   word(kOpBranch, 0b001),                      0, false, false},
  {Op::kBlt,    "blt",    kBranch,   word(kOpBranch, 0b100),                      0, false, false},
  {Op::kBge,    "bge",    kBranch,   word(kOpBranch, 0b101),                      0, false, false},
  {Op::kBltu,   "bltu",   kBranch,   word(kOpBranch, 0b110),                      0, false, false},
  {Op::kBgeu,   "bgeu",   kBranch,   word(kOpBranch, 0b111),                      0, false, false},
  {Op::kLb,     "lb",     kLoad,     word(kOpLoad, kWidthB),                      1, false, false},
  {Op::kLh,     "lh",     kLoad,     word(kOpLoad, kWidthH),                      2, false, false},
  {Op::kLw,     "lw",     kLoad,     word(kOpLoad, kWidthW),                      4, false, false},
  {Op::kLd,     "ld",     kLoad,     word(kOpLoad, kWidthD),                      8, false, false},
  {Op::kLbu,    "lbu",    kLoad,     word(kOpLoad, kWidthBU),                     1, true,  false},
  {Op::kLhu,    "lhu",    kLoad,     word(kOpLoad, kWidthHU),                     2, true,  false},
  {Op::kLwu,    "lwu",    kLoad,     word(kOpLoad, kWidthWU),                     4, true,  false},
  {Op::kSb,     "sb",     kStore,    word(kOpStore, kWidthB),                     1, false, false},
  {Op::kSh,     "sh",     kStore,    word(kOpStore, kWidthH),                     2, false, false},
  {Op::kSw,     "sw",     kStore,    word(kOpStore, kWidthW),                     4, false, false},
  {Op::kSd,     "sd",     kStore,    word(kOpStore, kWidthD),                     8, false, false},
  {Op::kAddi,   "addi",   kI,        word(kOpOpImm, 0b000),                       0, false, false},
  {Op::kSlti,   "slti",   kI,        word(kOpOpImm, 0b010),                       0, false, false},
  {Op::kSltiu,  "sltiu",  kI,        word(kOpOpImm, 0b011),                       0, false, false},
  {Op::kXori,   "xori",   kI,        word(kOpOpImm, 0b100),                       0, false, false},
  {Op::kOri,    "ori",    kI,        word(kOpOpImm, 0b110),                       0, false, false},
  {Op::kAndi,   "andi",   kI,        word(kOpOpImm, 0b111),                       0, false, false},
  {Op::kSlli,   "slli",   kShift64,  word(kOpOpImm, 0b001),                       0, false, false},
  {Op::kSrli,   "srli",   kShift64,  word(kOpOpImm, 0b101),                       0, false, false},
  {Op::kSrai,   "srai",   kShift64,  word(kOpOpImm, 0b101, 0x20),                 0, false, false},
  {Op::kAdd,    "add",    kR,        word(kOpOp, 0b000),                          0, false, false},
  {Op::kSub,    "sub",    kR,        word(kOpOp, 0b000, 0x20),                    0, false, false},
  {Op::kSll,    "sll",    kR,        word(kOpOp, 0b001),                          0, false, false},
  {Op::kSlt,    "slt",    kR,        word(kOpOp, 0b010),                          0, false, false},
  {Op::kSltu,   "sltu",   kR,        word(kOpOp, 0b011),                          0, false, false},
  {Op::kXor,    "xor",    kR,        word(kOpOp, 0b100),                          0, false, false},
  {Op::kSrl,    "srl",    kR,        word(kOpOp, 0b101),                          0, false, false},
  {Op::kSra,    "sra",    kR,        word(kOpOp, 0b101, 0x20),                    0, false, false},
  {Op::kOr,     "or",     kR,        word(kOpOp, 0b110),                          0, false, false},
  {Op::kAnd,    "and",    kR,        word(kOpOp, 0b111),                          0, false, false},
  {Op::kAddiw,  "addiw",  kI,        word(kOpOpImm32, 0b000),                     0, false, false},
  {Op::kSlliw,  "slliw",  kShift32,  word(kOpOpImm32, 0b001),                     0, false, false},
  {Op::kSrliw,  "srliw",  kShift32,  word(kOpOpImm32, 0b101),                     0, false, false},
  {Op::kSraiw,  "sraiw",  kShift32,  word(kOpOpImm32, 0b101, 0x20),               0, false, false},
  {Op::kAddw,   "addw",   kR,        word(kOpOp32, 0b000),                        0, false, false},
  {Op::kSubw,   "subw",   kR,        word(kOpOp32, 0b000, 0x20),                  0, false, false},
  {Op::kSllw,   "sllw",   kR,        word(kOpOp32, 0b001),                        0, false, false},
  {Op::kSrlw,   "srlw",   kR,        word(kOpOp32, 0b101),                        0, false, false},
  {Op::kSraw,   "sraw",   kR,        word(kOpOp32, 0b101, 0x20),                  0, false, false},
  {Op::kMul,    "mul",    kR,        word(kOpOp, 0b000, 0x01),                    0, false, false},
  {Op::kMulh,   "mulh",   kR,        word(kOpOp, 0b001, 0x01),                    0, false, false},
  {Op::kMulhsu, "mulhsu", kR,        word(kOpOp, 0b010, 0x01),                    0, false, false},
  {Op::kMulhu,  "mulhu",  kR,        word(kOpOp, 0b011, 0x01),                    0, false, false},
  {Op::kDiv,    "div",    kR,        word(kOpOp, 0b100, 0x01),                    0, false, false},
  {Op::kDivu,   "divu",   kR,        word(kOpOp, 0b101, 0x01),                    0, false, false},
  {Op::kRem,    "rem",    kR,        word(kOpOp, 0b110, 0x01),                    0, false, false},
  {Op::kRemu,   "remu",   kR,        word(kOpOp, 0b111, 0x01),                    0, false, false},
  {Op::kMulw,   "mulw",   kR,        word(kOpOp32, 0b000, 0x01),                  0, false, false},
  {Op::kDivw,   "divw",   kR,        word(kOpOp32, 0b100, 0x01),                  0, false, false},
  {Op::kDivuw,  "divuw",  kR,        word(kOpOp32, 0b101, 0x01),                  0, false, false},
  {Op::kRemw,   "remw",   kR,        word(kOpOp32, 0b110, 0x01),                  0, false, false},
  {Op::kRemuw,  "remuw",  kR,        word(kOpOp32, 0b111, 0x01),                  0, false, false},
  {Op::kEcall,  "ecall",  kSystem,   word(kOpSystem),                             0, false, false},
  {Op::kEbreak, "ebreak", kSystem,   word(kOpSystem) | 1u << 20,                  0, false, false},
  {Op::kElb,    "elb",    kLoad,     word(kOpXbgasLoad, kWidthB),                 1, false, true},
  {Op::kElh,    "elh",    kLoad,     word(kOpXbgasLoad, kWidthH),                 2, false, true},
  {Op::kElw,    "elw",    kLoad,     word(kOpXbgasLoad, kWidthW),                 4, false, true},
  {Op::kEld,    "eld",    kLoad,     word(kOpXbgasLoad, kWidthD),                 8, false, true},
  {Op::kElbu,   "elbu",   kLoad,     word(kOpXbgasLoad, kWidthBU),                1, true,  true},
  {Op::kElhu,   "elhu",   kLoad,     word(kOpXbgasLoad, kWidthHU),                2, true,  true},
  {Op::kElwu,   "elwu",   kLoad,     word(kOpXbgasLoad, kWidthWU),                4, true,  true},
  {Op::kEsb,    "esb",    kStore,    word(kOpXbgasStore, kWidthB),                1, false, true},
  {Op::kEsh,    "esh",    kStore,    word(kOpXbgasStore, kWidthH),                2, false, true},
  {Op::kEsw,    "esw",    kStore,    word(kOpXbgasStore, kWidthW),                4, false, true},
  {Op::kEsd,    "esd",    kStore,    word(kOpXbgasStore, kWidthD),                8, false, true},
  {Op::kErlb,   "erlb",   kRawLoad,  word(kOpXbgasRaw, kWidthB, kRawFunct7Load),  1, false, true},
  {Op::kErlh,   "erlh",   kRawLoad,  word(kOpXbgasRaw, kWidthH, kRawFunct7Load),  2, false, true},
  {Op::kErlw,   "erlw",   kRawLoad,  word(kOpXbgasRaw, kWidthW, kRawFunct7Load),  4, false, true},
  {Op::kErld,   "erld",   kRawLoad,  word(kOpXbgasRaw, kWidthD, kRawFunct7Load),  8, false, true},
  {Op::kErlbu,  "erlbu",  kRawLoad,  word(kOpXbgasRaw, kWidthBU, kRawFunct7Load), 1, true,  true},
  {Op::kErlhu,  "erlhu",  kRawLoad,  word(kOpXbgasRaw, kWidthHU, kRawFunct7Load), 2, true,  true},
  {Op::kErlwu,  "erlwu",  kRawLoad,  word(kOpXbgasRaw, kWidthWU, kRawFunct7Load), 4, true,  true},
  {Op::kErsb,   "ersb",   kRawStore, word(kOpXbgasRaw, kWidthB, kRawFunct7Store), 1, false, true},
  {Op::kErsh,   "ersh",   kRawStore, word(kOpXbgasRaw, kWidthH, kRawFunct7Store), 2, false, true},
  {Op::kErsw,   "ersw",   kRawStore, word(kOpXbgasRaw, kWidthW, kRawFunct7Store), 4, false, true},
  {Op::kErsd,   "ersd",   kRawStore, word(kOpXbgasRaw, kWidthD, kRawFunct7Store), 8, false, true},
  {Op::kEaddie, "eaddie", kEaddie,   word(kOpXbgasAddr, kAddrFunct3Eaddie),       0, false, true},
  {Op::kEaddix, "eaddix", kEaddix,   word(kOpXbgasAddr, kAddrFunct3Eaddix),       0, false, true},
};
// clang-format on

constexpr bool rows_follow_enum_order() {
  for (std::size_t i = 0; i < std::size(kOpTable); ++i) {
    if (kOpTable[i].op != static_cast<Op>(i)) return false;
  }
  return std::size(kOpTable) == static_cast<std::size_t>(Op::kCount);
}
static_assert(rows_follow_enum_order(), "one OpInfo row per Op, in order");

}  // namespace detail

/// The table row of `op` (any op but kCount).
constexpr const OpInfo& info(Op op) {
  XBGAS_DCHECK(op < Op::kCount, "info: no row for kCount");
  return detail::kOpTable[static_cast<std::size_t>(op)];
}

/// Disassembly, e.g. "eld x5, 16(x6)".
std::string to_string(const Instruction& inst);

}  // namespace xbgas::isa
