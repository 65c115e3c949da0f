#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "isa/decoder.hpp"
#include "isa/encoder.hpp"

namespace xbgas::isa {
namespace {

TEST(CodecTest, GoldenRv64iEncodings) {
  // Reference encodings from the RISC-V user-level ISA (v2.0) — these pin
  // our standard-instruction encodings to the real architecture.
  EXPECT_EQ(encode({Op::kAddi, 1, 2, 0, 3}), 0x00310093u);    // addi x1,x2,3
  EXPECT_EQ(encode({Op::kAddi, 1, 1, 0, -1}), 0xFFF08093u);   // addi x1,x1,-1
  EXPECT_EQ(encode({Op::kLd, 5, 6, 0, 8}), 0x00833283u);      // ld x5,8(x6)
  EXPECT_EQ(encode({Op::kSd, 0, 10, 7, 16}), 0x00753823u);    // sd x7,16(x10)
  EXPECT_EQ(encode({Op::kAdd, 3, 1, 2}), 0x002081B3u);        // add x3,x1,x2
  EXPECT_EQ(encode({Op::kSub, 3, 1, 2}), 0x402081B3u);        // sub x3,x1,x2
  EXPECT_EQ(encode({Op::kLui, 7, 0, 0, 0x12345000}), 0x123453B7u);
  EXPECT_EQ(encode({Op::kJalr, 0, 1, 0, 0}), 0x00008067u);    // ret
  EXPECT_EQ(encode({Op::kEcall, 0, 0, 0, 0}), 0x00000073u);
  EXPECT_EQ(encode({Op::kEbreak, 0, 0, 0, 0}), 0x00100073u);
  EXPECT_EQ(encode({Op::kMul, 5, 6, 7}), 0x027302B3u);        // mul x5,x6,x7
}

TEST(CodecTest, GoldenBranchEncoding) {
  // beq x1, x2, +16 : imm 16 -> B-type fields
  EXPECT_EQ(encode({Op::kBeq, 0, 1, 2, 16}), 0x00208863u);
  // bne x3, x0, -4 (classic loop back-edge)
  EXPECT_EQ(encode({Op::kBne, 0, 3, 0, -4}), 0xFE019EE3u);
}

std::vector<Instruction> canonical_instructions() {
  // One representative per op with format-appropriate operand values,
  // including boundary immediates.
  std::vector<Instruction> out;
  const auto add = [&](Op op, std::uint8_t rd, std::uint8_t rs1,
                       std::uint8_t rs2, std::int64_t imm) {
    out.push_back({op, rd, rs1, rs2, imm});
  };

  for (std::int64_t imm : {std::int64_t{0}, std::int64_t{1},
                           std::int64_t{-1}, std::int64_t{2047},
                           std::int64_t{-2048}}) {
    for (Op op : {Op::kAddi, Op::kSlti, Op::kSltiu, Op::kXori, Op::kOri,
                  Op::kAndi, Op::kAddiw, Op::kJalr, Op::kLb, Op::kLh, Op::kLw,
                  Op::kLd, Op::kLbu, Op::kLhu, Op::kLwu, Op::kElb, Op::kElh,
                  Op::kElw, Op::kEld, Op::kElbu, Op::kElhu, Op::kElwu,
                  Op::kEaddie, Op::kEaddix}) {
      add(op, 5, 10, 0, imm);
    }
    for (Op op : {Op::kSb, Op::kSh, Op::kSw, Op::kSd, Op::kEsb, Op::kEsh,
                  Op::kEsw, Op::kEsd}) {
      add(op, 0, 10, 17, imm);
    }
  }
  for (std::int64_t shamt : {std::int64_t{0}, std::int64_t{1},
                             std::int64_t{31}, std::int64_t{63}}) {
    for (Op op : {Op::kSlli, Op::kSrli, Op::kSrai}) add(op, 3, 4, 0, shamt);
  }
  for (std::int64_t shamt : {std::int64_t{0}, std::int64_t{31}}) {
    for (Op op : {Op::kSlliw, Op::kSrliw, Op::kSraiw}) add(op, 3, 4, 0, shamt);
  }
  for (Op op : {Op::kAdd, Op::kSub, Op::kSll, Op::kSlt, Op::kSltu, Op::kXor,
                Op::kSrl, Op::kSra, Op::kOr, Op::kAnd, Op::kAddw, Op::kSubw,
                Op::kSllw, Op::kSrlw, Op::kSraw, Op::kMul, Op::kMulh,
                Op::kMulhsu, Op::kMulhu, Op::kDiv, Op::kDivu, Op::kRem,
                Op::kRemu, Op::kMulw, Op::kDivw, Op::kDivuw, Op::kRemw,
                Op::kRemuw, Op::kErlb, Op::kErlh, Op::kErlw, Op::kErld,
                Op::kErlbu, Op::kErlhu, Op::kErlwu, Op::kErsb, Op::kErsh,
                Op::kErsw, Op::kErsd}) {
    add(op, 1, 2, 3, 0);
    add(op, 31, 30, 29, 0);
  }
  for (std::int64_t imm : {std::int64_t{0}, std::int64_t{4096},
                           std::int64_t{-4096},
                           std::int64_t{0x7FFFF000},
                           -(std::int64_t{1} << 31)}) {
    add(Op::kLui, 9, 0, 0, imm);
    add(Op::kAuipc, 9, 0, 0, imm);
  }
  for (std::int64_t imm : {std::int64_t{0}, std::int64_t{4},
                           std::int64_t{-4}, std::int64_t{4094},
                           std::int64_t{-4096}}) {
    for (Op op : {Op::kBeq, Op::kBne, Op::kBlt, Op::kBge, Op::kBltu,
                  Op::kBgeu}) {
      add(op, 0, 6, 7, imm);
    }
  }
  for (std::int64_t imm : {std::int64_t{0}, std::int64_t{2},
                           std::int64_t{-2}, std::int64_t{1 << 20} - 2,
                           -(std::int64_t{1} << 20)}) {
    add(Op::kJal, 1, 0, 0, imm);
  }
  add(Op::kEcall, 0, 0, 0, 0);
  add(Op::kEbreak, 0, 0, 0, 0);
  return out;
}

TEST(CodecTest, EncodeDecodeRoundTripsEveryOp) {
  for (const Instruction& inst : canonical_instructions()) {
    const std::uint32_t word = encode(inst);
    const Instruction back = decode(word);
    EXPECT_EQ(back, inst) << to_string(inst) << " -> 0x" << std::hex << word
                          << " -> " << to_string(back);
  }
}

TEST(CodecTest, XbgasOpcodesLiveInCustomSpace) {
  // xBGAS must not collide with standard RV64I major opcodes.
  const std::uint32_t eld = encode({Op::kEld, 1, 2, 0, 0});
  const std::uint32_t esd = encode({Op::kEsd, 0, 2, 3, 0});
  const std::uint32_t erld = encode({Op::kErld, 1, 2, 3, 0});
  const std::uint32_t eaddie = encode({Op::kEaddie, 1, 2, 0, 0});
  EXPECT_EQ(eld & 0x7F, 0x0Bu);
  EXPECT_EQ(esd & 0x7F, 0x2Bu);
  EXPECT_EQ(erld & 0x7F, 0x5Bu);
  EXPECT_EQ(eaddie & 0x7F, 0x7Bu);
}

TEST(CodecTest, IllegalWordsThrow) {
  EXPECT_THROW(decode(0x00000000), Error);  // all-zero is reserved
  EXPECT_THROW(decode(0xFFFFFFFF), Error);
  EXPECT_THROW(decode(0x00002063), Error);  // branch funct3=010 undefined
  EXPECT_THROW(decode(0x0000705B), Error);  // custom-2 funct7 undefined... (funct7=0, funct3=7: erl width 7 undefined)
}

TEST(CodecTest, TryDecodeNeverThrows) {
  Xoshiro256ss rng(2024);
  int decoded = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto word = static_cast<std::uint32_t>(rng.next());
    const auto inst = try_decode(word);  // must not crash on any bit pattern
    if (inst) ++decoded;
  }
  EXPECT_GT(decoded, 0);
}

TEST(CodecTest, RandomRoundTripThroughDecoder) {
  // Fuzz: any word that decodes must re-encode to a word that decodes to
  // the same instruction (encode may normalize don't-care bits).
  Xoshiro256ss rng(7);
  int checked = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto word = static_cast<std::uint32_t>(rng.next());
    const auto inst = try_decode(word);
    if (!inst) continue;
    const auto reencoded = encode(*inst);
    EXPECT_EQ(decode(reencoded), *inst);
    ++checked;
  }
  EXPECT_GT(checked, 100);
}

TEST(CodecTest, ImmediateRangeChecksThrow) {
  EXPECT_THROW(encode({Op::kAddi, 1, 2, 0, 2048}), Error);
  EXPECT_THROW(encode({Op::kAddi, 1, 2, 0, -2049}), Error);
  EXPECT_THROW(encode({Op::kBeq, 0, 1, 2, 3}), Error);      // odd offset
  EXPECT_THROW(encode({Op::kBeq, 0, 1, 2, 4096}), Error);   // too far
  EXPECT_THROW(encode({Op::kLui, 1, 0, 0, 123}), Error);    // unaligned
  EXPECT_THROW(encode({Op::kSlli, 1, 2, 0, 64}), Error);    // shamt
  EXPECT_THROW(encode({Op::kJal, 1, 0, 0, 1}), Error);      // odd target
}

TEST(CodecTest, MnemonicsAreUniqueAndLowercase) {
  std::vector<std::string> names;
  for (int i = 0; i < static_cast<int>(Op::kCount); ++i) {
    names.emplace_back(info(static_cast<Op>(i)).mnemonic);
  }
  for (const auto& n : names) {
    EXPECT_NE(n, "?");
    for (char c : n) EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_') << n;
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(CodecTest, DisassemblyShapes) {
  EXPECT_EQ(to_string({Op::kEld, 5, 6, 0, 16}), "eld x5, 16(x6)");
  EXPECT_EQ(to_string({Op::kEsd, 0, 6, 7, 8}), "esd x7, 8(x6)");
  EXPECT_EQ(to_string({Op::kErld, 5, 6, 7}), "erld x5, x6, e7");
  EXPECT_EQ(to_string({Op::kEaddie, 6, 7, 0}), "eaddie e6, x7, 0");
  EXPECT_EQ(to_string({Op::kAdd, 3, 1, 2}), "add x3, x1, x2");
}

}  // namespace
}  // namespace xbgas::isa
