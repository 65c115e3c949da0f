#include "isa/hart.hpp"

#include <limits>
#include <utility>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "olb/olb.hpp"

namespace xbgas::isa {

namespace {

__extension__ using int128_t = __int128;
__extension__ using uint128_t = unsigned __int128;

std::int64_t s64(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::uint64_t u64(std::int64_t v) { return static_cast<std::uint64_t>(v); }

std::uint64_t sext32(std::uint64_t v) {
  return u64(static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}

/// The (object ID, address) a load or store names.
std::pair<std::uint64_t, std::uint64_t> address(const RegFile& regs,
                                                const Instruction& inst,
                                                const OpInfo& row) {
  switch (row.format) {
    case Format::kRawLoad:
      // Raw forms: an explicit e-register (rs2 for loads, rd for stores)
      // and no immediate.
      return {regs.e(inst.rs2), regs.x(inst.rs1)};
    case Format::kRawStore:
      return {regs.e(inst.rd), regs.x(inst.rs1)};
    default:
      // Base forms: the e-register *naturally corresponding* to rs1
      // supplies the object ID (paper §3.2); standard ops stay local.
      return {row.xbgas ? regs.e(inst.rs1) : kLocalObjectId,
              regs.x(inst.rs1) + u64(inst.imm)};
  }
}

}  // namespace

Hart::Hart(GlobalMemoryPort& port, const HartConfig& config)
    : port_(port), config_(config) {}

void Hart::load_program(Program program) {
  program_ = std::move(program);
  pc_ = 0;
}

void Hart::reset() {
  pc_ = 0;
  cycles_ = 0;
  regs_.clear();
  stats_ = HartStats{};
}

Hart::Halt Hart::run(std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    const Halt h = step();
    if (h != Halt::kNone) return h;
  }
  return Halt::kMaxSteps;
}

Hart::Halt Hart::step() {
  XBGAS_CHECK(pc_ % 4 == 0, "misaligned pc");
  const std::uint64_t index = pc_ / 4;
  XBGAS_CHECK(index < program_.insts.size(),
              strfmt("pc 0x%llx past end of program (%zu instructions)",
                     static_cast<unsigned long long>(pc_),
                     program_.insts.size()));
  const Instruction& inst = program_.insts[index];
  ++stats_.instructions;
  cycles_ += config_.base_op_cycles;
  return execute(inst);
}

void Hart::access_memory(const Instruction& inst, const OpInfo& row) {
  const auto [object_id, addr] = address(regs_, inst, row);
  if (row.format == Format::kLoad || row.format == Format::kRawLoad) {
    ++stats_.loads;
    if (object_id != kLocalObjectId) ++stats_.remote_loads;
    std::uint64_t raw = 0;
    cycles_ += port_.load(object_id, addr, row.width, &raw).cycles;
    regs_.set_x(inst.rd, row.zero_extend
                             ? raw
                             : u64(sign_extend(raw, row.width * 8u)));
  } else {
    ++stats_.stores;
    if (object_id != kLocalObjectId) ++stats_.remote_stores;
    cycles_ +=
        port_.store(object_id, addr, row.width, regs_.x(inst.rs2)).cycles;
  }
}

Hart::Halt Hart::execute(const Instruction& inst) {
  const auto rd = inst.rd;
  const auto rs1v = regs_.x(inst.rs1);
  const auto rs2v = regs_.x(inst.rs2);
  const auto imm = inst.imm;
  std::uint64_t next_pc = pc_ + 4;

  switch (inst.op) {
    case Op::kLui:
      regs_.set_x(rd, u64(imm));
      break;
    case Op::kAuipc:
      regs_.set_x(rd, pc_ + u64(imm));
      break;
    case Op::kJal:
      regs_.set_x(rd, pc_ + 4);
      next_pc = pc_ + u64(imm);
      cycles_ += config_.branch_taken_extra;
      break;
    case Op::kJalr:
      regs_.set_x(rd, pc_ + 4);
      next_pc = (rs1v + u64(imm)) & ~std::uint64_t{1};
      cycles_ += config_.branch_taken_extra;
      break;

    case Op::kBeq: case Op::kBne: case Op::kBlt:
    case Op::kBge: case Op::kBltu: case Op::kBgeu: {
      bool taken = false;
      switch (inst.op) {
        case Op::kBeq: taken = rs1v == rs2v; break;
        case Op::kBne: taken = rs1v != rs2v; break;
        case Op::kBlt: taken = s64(rs1v) < s64(rs2v); break;
        case Op::kBge: taken = s64(rs1v) >= s64(rs2v); break;
        case Op::kBltu: taken = rs1v < rs2v; break;
        case Op::kBgeu: taken = rs1v >= rs2v; break;
        default: break;
      }
      if (taken) {
        next_pc = pc_ + u64(imm);
        cycles_ += config_.branch_taken_extra;
        ++stats_.branches_taken;
      }
      break;
    }

    case Op::kAddi: regs_.set_x(rd, rs1v + u64(imm)); break;
    case Op::kSlti: regs_.set_x(rd, s64(rs1v) < imm ? 1 : 0); break;
    case Op::kSltiu: regs_.set_x(rd, rs1v < u64(imm) ? 1 : 0); break;
    case Op::kXori: regs_.set_x(rd, rs1v ^ u64(imm)); break;
    case Op::kOri: regs_.set_x(rd, rs1v | u64(imm)); break;
    case Op::kAndi: regs_.set_x(rd, rs1v & u64(imm)); break;
    case Op::kSlli: regs_.set_x(rd, rs1v << (imm & 63)); break;
    case Op::kSrli: regs_.set_x(rd, rs1v >> (imm & 63)); break;
    case Op::kSrai: regs_.set_x(rd, u64(s64(rs1v) >> (imm & 63))); break;

    case Op::kAdd: regs_.set_x(rd, rs1v + rs2v); break;
    case Op::kSub: regs_.set_x(rd, rs1v - rs2v); break;
    case Op::kSll: regs_.set_x(rd, rs1v << (rs2v & 63)); break;
    case Op::kSlt: regs_.set_x(rd, s64(rs1v) < s64(rs2v) ? 1 : 0); break;
    case Op::kSltu: regs_.set_x(rd, rs1v < rs2v ? 1 : 0); break;
    case Op::kXor: regs_.set_x(rd, rs1v ^ rs2v); break;
    case Op::kSrl: regs_.set_x(rd, rs1v >> (rs2v & 63)); break;
    case Op::kSra: regs_.set_x(rd, u64(s64(rs1v) >> (rs2v & 63))); break;
    case Op::kOr: regs_.set_x(rd, rs1v | rs2v); break;
    case Op::kAnd: regs_.set_x(rd, rs1v & rs2v); break;

    case Op::kAddiw: regs_.set_x(rd, sext32(rs1v + u64(imm))); break;
    case Op::kSlliw: regs_.set_x(rd, sext32(rs1v << (imm & 31))); break;
    case Op::kSrliw:
      regs_.set_x(rd, sext32(static_cast<std::uint32_t>(rs1v) >> (imm & 31)));
      break;
    case Op::kSraiw:
      regs_.set_x(
          rd, u64(static_cast<std::int64_t>(
                  static_cast<std::int32_t>(rs1v) >> (imm & 31))));
      break;

    case Op::kAddw: regs_.set_x(rd, sext32(rs1v + rs2v)); break;
    case Op::kSubw: regs_.set_x(rd, sext32(rs1v - rs2v)); break;
    case Op::kSllw: regs_.set_x(rd, sext32(rs1v << (rs2v & 31))); break;
    case Op::kSrlw:
      regs_.set_x(rd,
                  sext32(static_cast<std::uint32_t>(rs1v) >> (rs2v & 31)));
      break;
    case Op::kSraw:
      regs_.set_x(
          rd, u64(static_cast<std::int64_t>(
                  static_cast<std::int32_t>(rs1v) >> (rs2v & 31))));
      break;

    case Op::kMul:
      regs_.set_x(rd, rs1v * rs2v);
      cycles_ += config_.mul_cycles;
      break;
    case Op::kMulh:
      regs_.set_x(
          rd, u64(static_cast<std::int64_t>(
                  (static_cast<int128_t>(s64(rs1v)) * s64(rs2v)) >> 64)));
      cycles_ += config_.mul_cycles;
      break;
    case Op::kMulhsu:
      regs_.set_x(
          rd, u64(static_cast<std::int64_t>(
                  (static_cast<int128_t>(s64(rs1v)) *
                   static_cast<int128_t>(rs2v)) >> 64)));
      cycles_ += config_.mul_cycles;
      break;
    case Op::kMulhu:
      regs_.set_x(
          rd, static_cast<std::uint64_t>(
                  (static_cast<uint128_t>(rs1v) * rs2v) >> 64));
      cycles_ += config_.mul_cycles;
      break;
    case Op::kDiv:
      if (rs2v == 0) {
        regs_.set_x(rd, ~std::uint64_t{0});
      } else if (s64(rs1v) == std::numeric_limits<std::int64_t>::min() &&
                 s64(rs2v) == -1) {
        regs_.set_x(rd, rs1v);  // overflow case per spec
      } else {
        regs_.set_x(rd, u64(s64(rs1v) / s64(rs2v)));
      }
      cycles_ += config_.div_cycles;
      break;
    case Op::kDivu:
      regs_.set_x(rd, rs2v == 0 ? ~std::uint64_t{0} : rs1v / rs2v);
      cycles_ += config_.div_cycles;
      break;
    case Op::kRem:
      if (rs2v == 0) {
        regs_.set_x(rd, rs1v);
      } else if (s64(rs1v) == std::numeric_limits<std::int64_t>::min() &&
                 s64(rs2v) == -1) {
        regs_.set_x(rd, 0);
      } else {
        regs_.set_x(rd, u64(s64(rs1v) % s64(rs2v)));
      }
      cycles_ += config_.div_cycles;
      break;
    case Op::kRemu:
      regs_.set_x(rd, rs2v == 0 ? rs1v : rs1v % rs2v);
      cycles_ += config_.div_cycles;
      break;

    case Op::kMulw:
      regs_.set_x(rd, sext32(rs1v * rs2v));
      cycles_ += config_.mul_cycles;
      break;
    case Op::kDivw: {
      const auto a = static_cast<std::int32_t>(rs1v);
      const auto b = static_cast<std::int32_t>(rs2v);
      std::int32_t q;
      if (b == 0) {
        q = -1;
      } else if (a == std::numeric_limits<std::int32_t>::min() && b == -1) {
        q = a;
      } else {
        q = a / b;
      }
      regs_.set_x(rd, u64(static_cast<std::int64_t>(q)));
      cycles_ += config_.div_cycles;
      break;
    }
    case Op::kDivuw: {
      const auto a = static_cast<std::uint32_t>(rs1v);
      const auto b = static_cast<std::uint32_t>(rs2v);
      regs_.set_x(rd, sext32(b == 0 ? ~std::uint32_t{0} : a / b));
      cycles_ += config_.div_cycles;
      break;
    }
    case Op::kRemw: {
      const auto a = static_cast<std::int32_t>(rs1v);
      const auto b = static_cast<std::int32_t>(rs2v);
      std::int32_t r;
      if (b == 0) {
        r = a;
      } else if (a == std::numeric_limits<std::int32_t>::min() && b == -1) {
        r = 0;
      } else {
        r = a % b;
      }
      regs_.set_x(rd, u64(static_cast<std::int64_t>(r)));
      cycles_ += config_.div_cycles;
      break;
    }
    case Op::kRemuw: {
      const auto a = static_cast<std::uint32_t>(rs1v);
      const auto b = static_cast<std::uint32_t>(rs2v);
      regs_.set_x(rd, sext32(b == 0 ? a : a % b));
      cycles_ += config_.div_cycles;
      break;
    }

    case Op::kEcall:
      pc_ += 4;
      return Halt::kEcall;
    case Op::kEbreak:
      pc_ += 4;
      return Halt::kEbreak;

    case Op::kCount:
      throw Error("execute: invalid op");

    default: {
      // Loads, stores, eaddie and eaddix: the op's row says how.
      const OpInfo& row = info(inst.op);
      XBGAS_CHECK(config_.xbgas_enabled || !row.xbgas,
                  "xBGAS extension disabled");
      if (row.format == Format::kEaddie) {
        regs_.set_e(rd, rs1v + u64(imm));
      } else if (row.format == Format::kEaddix) {
        regs_.set_x(rd, regs_.e(inst.rs1) + u64(imm));
      } else {
        access_memory(inst, row);
      }
      break;
    }
  }

  pc_ = next_pc;
  return Halt::kNone;
}

}  // namespace xbgas::isa
