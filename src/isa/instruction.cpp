#include "isa/instruction.hpp"

#include "common/error.hpp"
#include "common/strfmt.hpp"

namespace xbgas::isa {

std::string to_string(const Instruction& inst) {
  XBGAS_CHECK(inst.op < Op::kCount, "to_string: invalid op");
  const OpInfo& row = info(inst.op);
  const char* m = row.mnemonic;
  const auto rd = static_cast<int>(inst.rd);
  const auto rs1 = static_cast<int>(inst.rs1);
  const auto rs2 = static_cast<int>(inst.rs2);
  const auto imm = static_cast<long long>(inst.imm);
  switch (row.format) {
    case Format::kR:
      return strfmt("%s x%d, x%d, x%d", m, rd, rs1, rs2);
    case Format::kI:
    case Format::kShift64:
    case Format::kShift32:
      return strfmt("%s x%d, x%d, %lld", m, rd, rs1, imm);
    case Format::kLoad:
      return strfmt("%s x%d, %lld(x%d)", m, rd, imm, rs1);
    case Format::kStore:
      return strfmt("%s x%d, %lld(x%d)", m, rs2, imm, rs1);
    case Format::kRawLoad:
      return strfmt("%s x%d, x%d, e%d", m, rd, rs1, rs2);
    case Format::kRawStore:
      return strfmt("%s x%d, x%d, e%d", m, rs2, rs1, rd);
    case Format::kBranch:
      return strfmt("%s x%d, x%d, %lld", m, rs1, rs2, imm);
    case Format::kJal:
    case Format::kU:
      return strfmt("%s x%d, %lld", m, rd, imm);
    case Format::kEaddie:
      return strfmt("%s e%d, x%d, %lld", m, rd, rs1, imm);
    case Format::kEaddix:
      return strfmt("%s x%d, e%d, %lld", m, rd, rs1, imm);
    case Format::kSystem:
      break;
  }
  return m;
}

}  // namespace xbgas::isa
