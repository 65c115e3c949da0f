#pragma once

// Instruction -> 32-bit word encoder: the op's match word (instruction.hpp)
// with the operand fields its format carries ORed in. encode/decode
// round-trip exactly (tests/isa/codec_test.cpp, tests/isa/isa_golden_test.cpp).

#include <cstdint>

#include "isa/instruction.hpp"

namespace xbgas::isa {

/// Encode one instruction. Throws xbgas::Error if a field is out of range
/// for the op's format (e.g. a 13-bit branch offset that doesn't fit, or an
/// odd branch target).
std::uint32_t encode(const Instruction& inst);

}  // namespace xbgas::isa
