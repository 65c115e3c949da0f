#pragma once

// Text assembler for RV64IM + xBGAS — the front half of the paper's
// toolchain substitution (DESIGN.md §1): where the authors compile C with
// the xBGAS riscv64 GNU toolchain, this repo assembles the instruction
// sequences it needs from source text (or via the typed ProgramBuilder).
//
// Syntax (one instruction, label, or comment per line):
//
//     # comments run to end of line
//     start:                       ; labels end with ':'
//       li   t0, 0xC0FFEE          ; pseudo-instructions expand
//       addi x5, x5, -1
//       ld   a0, 16(sp)            ; loads/stores use offset(base)
//       eld  x8, 0(x6)             ; xBGAS base form (e6 implied by x6)
//       erld x9, x6, e7            ; xBGAS raw form (explicit e-register)
//       eaddie e6, x7, 0
//       bne  x5, zero, start
//       ecall
//
// Registers accept numeric (x0-x31, e0-e31) and standard ABI names (zero,
// ra, sp, gp, tp, t0-t6, s0-s11/fp, a0-a7). Immediates accept decimal and
// 0x-hex, with optional leading '-'. Every op's mnemonic and operand syntax
// come from its row in the op table (instruction.hpp), the same format that
// to_string prints, so disassembly assembles back; the pseudo-instructions
// li, mv, nop, j and ret expand through ProgramBuilder.

#include <string>
#include <string_view>

#include "isa/builder.hpp"

namespace xbgas::isa {

/// Assemble `source` into an executable Program. Throws xbgas::Error with
/// a line-numbered message on any syntax or range problem.
Program assemble(std::string_view source);

/// Disassemble a program: one "offset: word  mnemonic operands" line per
/// instruction (round-trips through assemble for label-free programs).
std::string disassemble(const Program& program);

}  // namespace xbgas::isa
