#include "isa/builder.hpp"

#include <limits>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "isa/encoder.hpp"

namespace xbgas::isa {

namespace {
std::uint8_t reg(unsigned r) {
  XBGAS_CHECK(r < 32, "register index out of range");
  return static_cast<std::uint8_t>(r);
}
}  // namespace

ProgramBuilder& ProgramBuilder::emit(Instruction inst) {
  insts_.push_back(inst);
  return *this;
}

ProgramBuilder& ProgramBuilder::emit_branch(Op op, unsigned rs1, unsigned rs2,
                                            const std::string& lbl) {
  fixups_.push_back(Fixup{insts_.size(), lbl});
  return emit({op, 0, reg(rs1), reg(rs2), 0});
}

#define XBGAS_BUILDER_RTYPE(name, op)                                        \
  ProgramBuilder& ProgramBuilder::name(unsigned rd, unsigned rs1,            \
                                       unsigned rs2) {                       \
    return emit({op, reg(rd), reg(rs1), reg(rs2), 0});                       \
  }

#define XBGAS_BUILDER_ITYPE(name, op)                                        \
  ProgramBuilder& ProgramBuilder::name(unsigned rd, unsigned rs1,            \
                                       std::int64_t imm) {                   \
    return emit({op, reg(rd), reg(rs1), 0, imm});                            \
  }

#define XBGAS_BUILDER_STYPE(name, op)                                        \
  ProgramBuilder& ProgramBuilder::name(unsigned rs2, unsigned rs1,           \
                                       std::int64_t imm) {                   \
    return emit({op, 0, reg(rs1), reg(rs2), imm});                           \
  }

XBGAS_BUILDER_ITYPE(jalr, Op::kJalr)
XBGAS_BUILDER_ITYPE(lb, Op::kLb)
XBGAS_BUILDER_ITYPE(lh, Op::kLh)
XBGAS_BUILDER_ITYPE(lw, Op::kLw)
XBGAS_BUILDER_ITYPE(ld, Op::kLd)
XBGAS_BUILDER_ITYPE(lbu, Op::kLbu)
XBGAS_BUILDER_ITYPE(lhu, Op::kLhu)
XBGAS_BUILDER_ITYPE(lwu, Op::kLwu)
XBGAS_BUILDER_STYPE(sb, Op::kSb)
XBGAS_BUILDER_STYPE(sh, Op::kSh)
XBGAS_BUILDER_STYPE(sw, Op::kSw)
XBGAS_BUILDER_STYPE(sd, Op::kSd)
XBGAS_BUILDER_ITYPE(addi, Op::kAddi)
XBGAS_BUILDER_ITYPE(slti, Op::kSlti)
XBGAS_BUILDER_ITYPE(sltiu, Op::kSltiu)
XBGAS_BUILDER_ITYPE(xori, Op::kXori)
XBGAS_BUILDER_ITYPE(ori, Op::kOri)
XBGAS_BUILDER_ITYPE(andi, Op::kAndi)
XBGAS_BUILDER_ITYPE(slli, Op::kSlli)
XBGAS_BUILDER_ITYPE(srli, Op::kSrli)
XBGAS_BUILDER_ITYPE(srai, Op::kSrai)
XBGAS_BUILDER_ITYPE(addiw, Op::kAddiw)
XBGAS_BUILDER_RTYPE(add, Op::kAdd)
XBGAS_BUILDER_RTYPE(sub, Op::kSub)
XBGAS_BUILDER_RTYPE(sll, Op::kSll)
XBGAS_BUILDER_RTYPE(slt, Op::kSlt)
XBGAS_BUILDER_RTYPE(sltu, Op::kSltu)
XBGAS_BUILDER_RTYPE(xor_, Op::kXor)
XBGAS_BUILDER_RTYPE(srl, Op::kSrl)
XBGAS_BUILDER_RTYPE(sra, Op::kSra)
XBGAS_BUILDER_RTYPE(or_, Op::kOr)
XBGAS_BUILDER_RTYPE(and_, Op::kAnd)
XBGAS_BUILDER_RTYPE(addw, Op::kAddw)
XBGAS_BUILDER_RTYPE(subw, Op::kSubw)
XBGAS_BUILDER_RTYPE(mul, Op::kMul)
XBGAS_BUILDER_RTYPE(mulhu, Op::kMulhu)
XBGAS_BUILDER_RTYPE(div, Op::kDiv)
XBGAS_BUILDER_RTYPE(divu, Op::kDivu)
XBGAS_BUILDER_RTYPE(rem, Op::kRem)
XBGAS_BUILDER_RTYPE(remu, Op::kRemu)
XBGAS_BUILDER_ITYPE(elb, Op::kElb)
XBGAS_BUILDER_ITYPE(elh, Op::kElh)
XBGAS_BUILDER_ITYPE(elw, Op::kElw)
XBGAS_BUILDER_ITYPE(eld, Op::kEld)
XBGAS_BUILDER_ITYPE(elbu, Op::kElbu)
XBGAS_BUILDER_ITYPE(elhu, Op::kElhu)
XBGAS_BUILDER_ITYPE(elwu, Op::kElwu)
XBGAS_BUILDER_STYPE(esb, Op::kEsb)
XBGAS_BUILDER_STYPE(esh, Op::kEsh)
XBGAS_BUILDER_STYPE(esw, Op::kEsw)
XBGAS_BUILDER_STYPE(esd, Op::kEsd)

#undef XBGAS_BUILDER_RTYPE
#undef XBGAS_BUILDER_ITYPE
#undef XBGAS_BUILDER_STYPE

ProgramBuilder& ProgramBuilder::lui(unsigned rd, std::int64_t imm) {
  return emit({Op::kLui, reg(rd), 0, 0, imm});
}

ProgramBuilder& ProgramBuilder::auipc(unsigned rd, std::int64_t imm) {
  return emit({Op::kAuipc, reg(rd), 0, 0, imm});
}

ProgramBuilder& ProgramBuilder::jal(unsigned rd, const std::string& lbl) {
  fixups_.push_back(Fixup{insts_.size(), lbl});
  return emit({Op::kJal, reg(rd), 0, 0, 0});
}

ProgramBuilder& ProgramBuilder::beq(unsigned rs1, unsigned rs2, const std::string& l) {
  return emit_branch(Op::kBeq, rs1, rs2, l);
}
ProgramBuilder& ProgramBuilder::bne(unsigned rs1, unsigned rs2, const std::string& l) {
  return emit_branch(Op::kBne, rs1, rs2, l);
}
ProgramBuilder& ProgramBuilder::blt(unsigned rs1, unsigned rs2, const std::string& l) {
  return emit_branch(Op::kBlt, rs1, rs2, l);
}
ProgramBuilder& ProgramBuilder::bge(unsigned rs1, unsigned rs2, const std::string& l) {
  return emit_branch(Op::kBge, rs1, rs2, l);
}
ProgramBuilder& ProgramBuilder::bltu(unsigned rs1, unsigned rs2, const std::string& l) {
  return emit_branch(Op::kBltu, rs1, rs2, l);
}
ProgramBuilder& ProgramBuilder::bgeu(unsigned rs1, unsigned rs2, const std::string& l) {
  return emit_branch(Op::kBgeu, rs1, rs2, l);
}

ProgramBuilder& ProgramBuilder::ecall() { return emit({Op::kEcall, 0, 0, 0, 0}); }
ProgramBuilder& ProgramBuilder::ebreak() { return emit({Op::kEbreak, 0, 0, 0, 0}); }

ProgramBuilder& ProgramBuilder::erld(unsigned rd, unsigned rs1, unsigned ext) {
  return emit({Op::kErld, reg(rd), reg(rs1), reg(ext), 0});
}
ProgramBuilder& ProgramBuilder::erlw(unsigned rd, unsigned rs1, unsigned ext) {
  return emit({Op::kErlw, reg(rd), reg(rs1), reg(ext), 0});
}
ProgramBuilder& ProgramBuilder::erlh(unsigned rd, unsigned rs1, unsigned ext) {
  return emit({Op::kErlh, reg(rd), reg(rs1), reg(ext), 0});
}
ProgramBuilder& ProgramBuilder::erlb(unsigned rd, unsigned rs1, unsigned ext) {
  return emit({Op::kErlb, reg(rd), reg(rs1), reg(ext), 0});
}
// Raw stores carry the e-register operand in the rd field (see encoder.cpp).
ProgramBuilder& ProgramBuilder::ersd(unsigned rs2, unsigned rs1, unsigned ext) {
  return emit({Op::kErsd, reg(ext), reg(rs1), reg(rs2), 0});
}
ProgramBuilder& ProgramBuilder::ersw(unsigned rs2, unsigned rs1, unsigned ext) {
  return emit({Op::kErsw, reg(ext), reg(rs1), reg(rs2), 0});
}
ProgramBuilder& ProgramBuilder::ersh(unsigned rs2, unsigned rs1, unsigned ext) {
  return emit({Op::kErsh, reg(ext), reg(rs1), reg(rs2), 0});
}
ProgramBuilder& ProgramBuilder::ersb(unsigned rs2, unsigned rs1, unsigned ext) {
  return emit({Op::kErsb, reg(ext), reg(rs1), reg(rs2), 0});
}

ProgramBuilder& ProgramBuilder::eaddie(unsigned e_rd, unsigned rs1, std::int64_t imm) {
  return emit({Op::kEaddie, reg(e_rd), reg(rs1), 0, imm});
}
ProgramBuilder& ProgramBuilder::eaddix(unsigned rd, unsigned e_rs1, std::int64_t imm) {
  return emit({Op::kEaddix, reg(rd), reg(e_rs1), 0, imm});
}

ProgramBuilder& ProgramBuilder::li(unsigned rd, std::int64_t value) {
  // The standard assembler expansion: addi for 12-bit, lui+addiw for 32-bit
  // (addiw's mod-2^32 wrap makes the int32 cast of `hi` correct even when
  // value - lo overflows), and the recursive shift-by-12 scheme for full
  // 64-bit constants.
  if (value >= -2048 && value <= 2047) {
    return addi(rd, 0, value);
  }
  if (value >= std::numeric_limits<std::int32_t>::min() &&
      value <= std::numeric_limits<std::int32_t>::max()) {
    const std::int64_t lo =
        sign_extend(static_cast<std::uint64_t>(value) & 0xFFF, 12);
    const auto hi = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(value) - static_cast<std::uint32_t>(lo));
    lui(rd, static_cast<std::int64_t>(hi));
    if (lo != 0) addiw(rd, rd, lo);
    return *this;
  }
  const std::int64_t lo =
      sign_extend(static_cast<std::uint64_t>(value) & 0xFFF, 12);
  const std::int64_t hi =
      static_cast<std::int64_t>(static_cast<std::uint64_t>(value) -
                                static_cast<std::uint64_t>(lo)) >> 12;
  li(rd, hi);
  slli(rd, rd, 12);
  if (lo != 0) addi(rd, rd, lo);
  return *this;
}

ProgramBuilder& ProgramBuilder::insn(const Instruction& inst) {
  return emit(inst);
}

ProgramBuilder& ProgramBuilder::branch_insn(Op op, unsigned rs1, unsigned rs2,
                                            const std::string& lbl) {
  XBGAS_CHECK(op < Op::kCount && info(op).format == Format::kBranch,
              "branch_insn requires a branch op");
  return emit_branch(op, rs1, rs2, lbl);
}

ProgramBuilder& ProgramBuilder::jal_insn(unsigned rd, const std::string& lbl) {
  return jal(rd, lbl);
}

ProgramBuilder& ProgramBuilder::label(const std::string& name) {
  XBGAS_CHECK(!labels_.contains(name), "duplicate label: " + name);
  labels_[name] = insts_.size();
  return *this;
}

Program ProgramBuilder::build() const {
  std::vector<Instruction> insts = insts_;
  for (const auto& fix : fixups_) {
    const auto it = labels_.find(fix.label);
    XBGAS_CHECK(it != labels_.end(), "undefined label: " + fix.label);
    const auto target = static_cast<std::int64_t>(it->second);
    const auto source = static_cast<std::int64_t>(fix.index);
    insts[fix.index].imm = (target - source) * 4;
  }
  Program prog;
  prog.insts = std::move(insts);
  prog.words.reserve(prog.insts.size());
  for (const auto& inst : prog.insts) prog.words.push_back(encode(inst));
  return prog;
}

}  // namespace xbgas::isa
