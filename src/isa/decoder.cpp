#include "isa/decoder.hpp"

#include <array>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/strfmt.hpp"

namespace xbgas::isa {

namespace {

/// The bits of a word that name its op in `format`: everything but the
/// operand fields.
constexpr std::uint32_t op_bits(Format format) {
  switch (format) {
    case Format::kR:
    case Format::kShift32:
    case Format::kRawLoad:
    case Format::kRawStore:
      return 0xFE00707Fu;  // funct7, funct3, opcode
    case Format::kShift64:
      return 0xFC00707Fu;  // funct6, funct3, opcode
    case Format::kJal:
    case Format::kU:
      return 0x0000007Fu;  // opcode
    case Format::kSystem:
      return 0xFFFFFFFFu;  // the whole word
    default:
      return 0x0000707Fu;  // funct3, opcode
  }
}

/// One op that can sit in a slot: its match word, the bits of a word that
/// must equal it, and how to read its operands. The default candidate
/// matches no word.
struct Candidate {
  std::uint32_t op_bits = 0;
  std::uint32_t match = ~0u;
  Op op = Op::kCount;
  Format format = Format::kSystem;
};

/// opcode[6:2] and funct3: opcode[1:0] is 0b11 in every match word, and
/// op_bits covers it.
constexpr std::size_t slot_of(std::uint32_t w) {
  return ((w >> 2) & 0x1Fu) << 3 | ((w >> 12) & 7u);
}

/// The candidates of each (opcode, funct3) slot: at most three (OP funct3
/// 000 holds add, sub and mul).
using Slot = std::array<Candidate, 3>;
constexpr auto kSlots = [] {
  // Filled explicitly: GCC 12's constant evaluation of `slots{}` leaves
  // most candidates zeroed, and a zero candidate matches every word.
  std::array<Slot, 256> slots;
  for (Slot& slot : slots) slot.fill(Candidate{});
  for (const OpInfo& row : detail::kOpTable) {
    // jal/lui/auipc carry immediate bits in funct3: every slot of their
    // opcode holds them.
    const bool any_funct3 = (op_bits(row.format) & 0x7000u) == 0;
    for (std::uint32_t funct3 = 0; funct3 < 8; ++funct3) {
      const std::uint32_t w = (row.match & ~0x7000u) | funct3 << 12;
      if (!any_funct3 && w != row.match) continue;
      Slot& slot = slots[slot_of(w)];
      std::size_t n = 0;
      while (n < slot.size() && slot[n].op != Op::kCount) ++n;
      if (n == slot.size()) throw "more than three ops share a slot";
      slot[n] = {op_bits(row.format), row.match, row.op, row.format};
    }
  }
  return slots;
}();

std::int64_t imm_i(std::uint32_t w) { return sign_extend(w >> 20, 12); }

std::int64_t imm_s(std::uint32_t w) {
  const std::uint32_t v = (bits(w, 25, 7) << 5) | bits(w, 7, 5);
  return sign_extend(v, 12);
}

std::int64_t imm_b(std::uint32_t w) {
  const std::uint32_t v = (bits(w, 31, 1) << 12) | (bits(w, 7, 1) << 11) |
                          (bits(w, 25, 6) << 5) | (bits(w, 8, 4) << 1);
  return sign_extend(v, 13);
}

std::int64_t imm_u(std::uint32_t w) {
  return sign_extend(w & 0xFFFFF000u, 32);
}

std::int64_t imm_j(std::uint32_t w) {
  const std::uint32_t v = (bits(w, 31, 1) << 20) | (bits(w, 12, 8) << 12) |
                          (bits(w, 20, 1) << 11) | (bits(w, 21, 10) << 1);
  return sign_extend(v, 21);
}

/// The candidate `w` encodes, or nullptr for an illegal word. (`inline`
/// gets it inlined into decode: a call costs as much as the lookup.)
inline const Candidate* match(std::uint32_t w) {
  for (const Candidate& c : kSlots[slot_of(w)]) {
    if ((w & c.op_bits) == c.match) return &c;
  }
  return nullptr;
}

/// The instruction `w` encodes as `c`'s op; operand fields its format
/// lacks stay 0 (the canonical form encode and decode round-trip through).
Instruction fields(const Candidate& c, std::uint32_t w) {
  const Op op = c.op;
  const auto rd = static_cast<std::uint8_t>(bits(w, 7, 5));
  const auto rs1 = static_cast<std::uint8_t>(bits(w, 15, 5));
  const auto rs2 = static_cast<std::uint8_t>(bits(w, 20, 5));
  switch (c.format) {
    case Format::kR:
    case Format::kRawLoad:
    case Format::kRawStore:
      return {op, rd, rs1, rs2, 0};
    case Format::kI:
    case Format::kLoad:
    case Format::kEaddie:
    case Format::kEaddix:
      return {op, rd, rs1, 0, imm_i(w)};
    case Format::kShift64:
      return {op, rd, rs1, 0, bits(w, 20, 6)};
    case Format::kShift32:
      return {op, rd, rs1, 0, bits(w, 20, 5)};
    case Format::kStore:
      return {op, 0, rs1, rs2, imm_s(w)};
    case Format::kBranch:
      return {op, 0, rs1, rs2, imm_b(w)};
    case Format::kU:
      return {op, rd, 0, 0, imm_u(w)};
    case Format::kJal:
      return {op, rd, 0, 0, imm_j(w)};
    case Format::kSystem:
      break;
  }
  return {op, 0, 0, 0, 0};
}

[[noreturn]] void illegal(std::uint32_t w) {
  throw Error(strfmt("illegal instruction word 0x%08x", w));
}

}  // namespace

Instruction decode(std::uint32_t w) {
  const Candidate* c = match(w);
  if (c == nullptr) illegal(w);
  return fields(*c, w);
}

std::optional<Instruction> try_decode(std::uint32_t w) noexcept {
  const Candidate* c = match(w);
  if (c == nullptr) return std::nullopt;
  return fields(*c, w);
}

}  // namespace xbgas::isa
