#pragma once

// 32-bit word -> Instruction decoder for RV64I/M + xBGAS. The word's
// (opcode, funct3) slot holds at most three candidate ops from the op table
// (instruction.hpp); the word is the candidate whose match word it equals
// under that op's format, with the operand fields that format lacks zeroed.

#include <cstdint>
#include <optional>

#include "isa/instruction.hpp"

namespace xbgas::isa {

/// Decode one instruction word. Throws xbgas::Error on an illegal encoding.
Instruction decode(std::uint32_t word);

/// Non-throwing variant for tools/fuzzing.
std::optional<Instruction> try_decode(std::uint32_t word) noexcept;

}  // namespace xbgas::isa
