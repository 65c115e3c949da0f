#include "isa/encoder.hpp"

#include "common/error.hpp"
#include "common/strfmt.hpp"

namespace xbgas::isa {

namespace {

void check_reg(std::uint8_t r, const char* what) {
  XBGAS_CHECK(r < 32, strfmt("%s register index out of range: %u", what, r));
}

// `inline` keeps encode's common path free of calls, and so of register
// spills.
inline void check_imm_range(std::int64_t imm, unsigned bits_,
                            const char* what) {
  const std::int64_t lo = -(std::int64_t{1} << (bits_ - 1));
  const std::int64_t hi = (std::int64_t{1} << (bits_ - 1)) - 1;
  XBGAS_CHECK(imm >= lo && imm <= hi,
              strfmt("%s immediate %lld does not fit in %u bits", what,
                     static_cast<long long>(imm), bits_));
}

std::uint32_t u(std::int64_t v) { return static_cast<std::uint32_t>(v); }

}  // namespace

std::uint32_t encode(const Instruction& inst) {
  check_reg(inst.rd, "rd");
  check_reg(inst.rs1, "rs1");
  check_reg(inst.rs2, "rs2");
  XBGAS_CHECK(inst.op < Op::kCount, "encode: unsupported op");
  const OpInfo& row = info(inst.op);
  const std::uint32_t rd = std::uint32_t{inst.rd} << 7;
  const std::uint32_t rs1 = std::uint32_t{inst.rs1} << 15;
  const std::uint32_t rs2 = std::uint32_t{inst.rs2} << 20;
  const std::int64_t imm = inst.imm;
  const std::uint32_t i = u(imm);

  switch (row.format) {
    case Format::kR:
    case Format::kRawLoad:
    case Format::kRawStore:
      // Raw ops: the e-register operand rides in the rs2 field for loads
      // and in the rd field for stores (paper: "erld rd, rs1, ext2").
      return row.match | rd | rs1 | rs2;
    case Format::kI:
    case Format::kLoad:
    case Format::kEaddie:
    case Format::kEaddix:
      check_imm_range(imm, 12, "I-type");
      return row.match | rd | rs1 | ((i & 0xFFFu) << 20);
    case Format::kShift64:
    case Format::kShift32: {
      const std::int64_t max_shamt = row.format == Format::kShift64 ? 63 : 31;
      XBGAS_CHECK(imm >= 0 && imm <= max_shamt, "shift amount out of range");
      return row.match | rd | rs1 | (i << 20);
    }
    case Format::kStore:
      check_imm_range(imm, 12, "S-type");
      return row.match | ((i & 0x1Fu) << 7) | rs1 | rs2 |
             (((i >> 5) & 0x7Fu) << 25);
    case Format::kBranch:
      check_imm_range(imm, 13, "B-type");
      XBGAS_CHECK((imm & 1) == 0, "branch offset must be even");
      return row.match | (((i >> 11) & 1u) << 7) | (((i >> 1) & 0xFu) << 8) |
             rs1 | rs2 | (((i >> 5) & 0x3Fu) << 25) | (((i >> 12) & 1u) << 31);
    case Format::kU:
      // imm is the full 32-bit value with low 12 bits zero (as after `lui`).
      XBGAS_CHECK((imm & 0xFFF) == 0, "U-type immediate must be 4KiB-aligned");
      check_imm_range(imm >> 12, 20, "U-type");
      return row.match | rd | (i & 0xFFFFF000u);
    case Format::kJal:
      check_imm_range(imm, 21, "J-type");
      XBGAS_CHECK((imm & 1) == 0, "jump offset must be even");
      return row.match | rd | (((i >> 12) & 0xFFu) << 12) |
             (((i >> 11) & 1u) << 20) | (((i >> 1) & 0x3FFu) << 21) |
             (((i >> 20) & 1u) << 31);
    case Format::kSystem:
      break;
  }
  return row.match;
}

}  // namespace xbgas::isa
