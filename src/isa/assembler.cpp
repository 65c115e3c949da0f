#include "isa/assembler.hpp"

#include <cctype>
#include <map>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/strfmt.hpp"

namespace xbgas::isa {

namespace {

// ---------------------------------------------------------------------------
// Operand model
// ---------------------------------------------------------------------------

enum class OperandKind { kXReg, kEReg, kImm, kSymbol, kMem };

struct Operand {
  OperandKind kind;
  unsigned reg = 0;       // kXReg / kEReg, and the base register for kMem
  std::int64_t imm = 0;   // kImm, and the offset for kMem
  std::string symbol;     // kSymbol
};

const std::map<std::string, unsigned>& abi_names() {
  static const std::map<std::string, unsigned> kAbi = [] {
    std::map<std::string, unsigned> m{
        {"zero", 0}, {"ra", 1}, {"sp", 2},  {"gp", 3},
        {"tp", 4},   {"fp", 8}, {"s0", 8},  {"s1", 9},
    };
    for (unsigned i = 0; i <= 2; ++i) m["t" + std::to_string(i)] = 5 + i;
    for (unsigned i = 3; i <= 6; ++i) m["t" + std::to_string(i)] = 28 + i - 3;
    for (unsigned i = 0; i <= 7; ++i) m["a" + std::to_string(i)] = 10 + i;
    for (unsigned i = 2; i <= 11; ++i) m["s" + std::to_string(i)] = 18 + i - 2;
    return m;
  }();
  return kAbi;
}

bool is_symbol_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.'; }
bool is_symbol_char(char c) { return is_symbol_start(c) || std::isdigit(static_cast<unsigned char>(c)); }

std::optional<unsigned> parse_numeric_reg(std::string_view text, char prefix) {
  if (text.size() < 2 || text.size() > 3 || text[0] != prefix) return std::nullopt;
  unsigned value = 0;
  for (char c : text.substr(1)) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    value = value * 10 + static_cast<unsigned>(c - '0');
  }
  return value < 32 ? std::optional<unsigned>(value) : std::nullopt;
}

std::optional<std::int64_t> parse_number(std::string_view text) {
  if (text.empty()) return std::nullopt;
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i >= text.size()) return std::nullopt;
  int base = 10;
  if (text.size() - i > 2 && text[i] == '0' &&
      (text[i + 1] == 'x' || text[i + 1] == 'X')) {
    base = 16;
    i += 2;
  }
  std::uint64_t value = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return std::nullopt;
    value = value * static_cast<std::uint64_t>(base) +
            static_cast<std::uint64_t>(digit);
  }
  const auto signedv = static_cast<std::int64_t>(value);
  return negative ? -signedv : signedv;
}

/// Parse one operand token: register, immediate, symbol, or imm(base).
Operand parse_operand(std::string_view text, int line) {
  const auto fail = [&](const char* why) -> Operand {
    throw Error(strfmt("asm line %d: %s: '%.*s'", line, why,
                       static_cast<int>(text.size()), text.data()));
  };

  if (text.empty()) return fail("empty operand");

  // imm(base) memory reference.
  if (const auto open = text.find('('); open != std::string_view::npos) {
    if (text.back() != ')') return fail("malformed memory operand");
    const auto offset_text = text.substr(0, open);
    const auto base_text = text.substr(open + 1, text.size() - open - 2);
    const auto offset = offset_text.empty() ? std::optional<std::int64_t>(0)
                                            : parse_number(offset_text);
    if (!offset) return fail("bad memory offset");
    Operand base = parse_operand(base_text, line);
    if (base.kind != OperandKind::kXReg) return fail("memory base must be an x register");
    return Operand{.kind = OperandKind::kMem, .reg = base.reg, .imm = *offset, .symbol = {}};
  }

  if (const auto xr = parse_numeric_reg(text, 'x')) {
    return Operand{.kind = OperandKind::kXReg, .reg = *xr, .imm = 0, .symbol = {}};
  }
  if (const auto er = parse_numeric_reg(text, 'e')) {
    return Operand{.kind = OperandKind::kEReg, .reg = *er, .imm = 0, .symbol = {}};
  }
  if (const auto it = abi_names().find(std::string(text)); it != abi_names().end()) {
    return Operand{.kind = OperandKind::kXReg, .reg = it->second, .imm = 0, .symbol = {}};
  }
  if (const auto num = parse_number(text)) {
    return Operand{.kind = OperandKind::kImm, .reg = 0, .imm = *num, .symbol = {}};
  }
  if (is_symbol_start(text[0])) {
    for (char c : text) {
      if (!is_symbol_char(c)) return fail("bad symbol");
    }
    return Operand{.kind = OperandKind::kSymbol, .reg = 0, .imm = 0, .symbol = std::string(text)};
  }
  return fail("unrecognized operand");
}

const std::map<std::string, Op>& mnemonic_table() {
  static const std::map<std::string, Op> kTable = [] {
    std::map<std::string, Op> m;
    for (const OpInfo& row : detail::kOpTable) m[row.mnemonic] = row.op;
    return m;
  }();
  return kTable;
}

// ---------------------------------------------------------------------------
// Line-level parsing
// ---------------------------------------------------------------------------

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split_operands(std::string_view rest) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= rest.size()) {
    auto comma = rest.find(',', start);
    if (comma == std::string_view::npos) comma = rest.size();
    const auto piece = trim(rest.substr(start, comma - start));
    if (!piece.empty()) out.push_back(piece);
    start = comma + 1;
    if (comma == rest.size()) break;
  }
  return out;
}

void expect(bool cond, int line, const char* what) {
  if (!cond) throw Error(strfmt("asm line %d: %s", line, what));
}

unsigned want_x(const Operand& op, int line) {
  expect(op.kind == OperandKind::kXReg, line, "expected an x register");
  return op.reg;
}

unsigned want_e(const Operand& op, int line) {
  expect(op.kind == OperandKind::kEReg, line, "expected an e register");
  return op.reg;
}

std::int64_t want_imm(const Operand& op, int line) {
  expect(op.kind == OperandKind::kImm, line, "expected an immediate");
  return op.imm;
}

}  // namespace

Program assemble(std::string_view source) {
  ProgramBuilder b;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    auto newline = source.find('\n', pos);
    if (newline == std::string_view::npos) newline = source.size();
    std::string_view line = source.substr(pos, newline - pos);
    pos = newline + 1;
    ++line_no;

    // Strip comments ('#' or ';') and whitespace.
    if (const auto hash = line.find_first_of("#;"); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) {
      if (newline == source.size()) break;
      continue;
    }

    // Labels (possibly followed by an instruction on the same line).
    while (true) {
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) break;
      const auto name = trim(line.substr(0, colon));
      expect(!name.empty() && is_symbol_start(name[0]), line_no, "bad label");
      b.label(std::string(name));
      line = trim(line.substr(colon + 1));
      if (line.empty()) break;
    }
    if (line.empty()) {
      if (newline == source.size()) break;
      continue;
    }

    // Mnemonic and operands.
    auto space = line.find_first_of(" \t");
    const std::string mnem(line.substr(0, space));
    const auto ops = split_operands(
        space == std::string_view::npos ? std::string_view{} : line.substr(space));
    const auto operand = [&](std::size_t i) {
      return parse_operand(ops[i], line_no);
    };
    const auto arity = [&](std::size_t n, const char* operands) {
      if (ops.size() != n) {
        throw Error(strfmt("asm line %d: %s takes %s", line_no, mnem.c_str(),
                           operands));
      }
    };
    const auto x = [&](std::size_t i) {
      return static_cast<std::uint8_t>(want_x(operand(i), line_no));
    };
    const auto e = [&](std::size_t i) {
      return static_cast<std::uint8_t>(want_e(operand(i), line_no));
    };
    const auto imm = [&](std::size_t i) {
      return want_imm(operand(i), line_no);
    };
    const auto mem = [&](std::size_t i) {
      const Operand m = operand(i);
      expect(m.kind == OperandKind::kMem, line_no, "expected imm(base)");
      return m;
    };

    // Pseudo-instructions first.
    if (mnem == "li") {
      arity(2, "rd, imm");
      b.li(x(0), imm(1));
    } else if (mnem == "mv") {
      arity(2, "rd, rs1");
      b.mv(x(0), x(1));
    } else if (mnem == "nop") {
      arity(0, "no operands");
      b.nop();
    } else if (mnem == "j") {
      arity(1, "a target");
      const Operand t = operand(0);
      if (t.kind == OperandKind::kSymbol) {
        b.jal_insn(0, t.symbol);
      } else {
        b.insn({Op::kJal, 0, 0, 0, want_imm(t, line_no)});
      }
    } else if (mnem == "ret") {
      arity(0, "no operands");
      b.jalr(0, 1, 0);
    } else {
      const auto it = mnemonic_table().find(mnem);
      expect(it != mnemonic_table().end(), line_no, "unknown mnemonic");
      const Op op = it->second;
      switch (info(op).format) {
        case Format::kR:
          arity(3, "rd, rs1, rs2");
          b.insn({op, x(0), x(1), x(2), 0});
          break;
        case Format::kI:
        case Format::kShift64:
        case Format::kShift32:
          arity(3, "rd, rs1, imm");
          b.insn({op, x(0), x(1), 0, imm(2)});
          break;
        case Format::kLoad: {
          arity(2, "rd, imm(rs1)");
          const Operand m = mem(1);
          b.insn({op, x(0), static_cast<std::uint8_t>(m.reg), 0, m.imm});
          break;
        }
        case Format::kStore: {
          arity(2, "rs2, imm(rs1)");
          const Operand m = mem(1);
          b.insn({op, 0, static_cast<std::uint8_t>(m.reg), x(0), m.imm});
          break;
        }
        case Format::kRawLoad:
          arity(3, "rd, rs1, eN");
          b.insn({op, x(0), x(1), e(2), 0});
          break;
        case Format::kRawStore:
          // The e-register rides in the rd field (see encoder.cpp).
          arity(3, "rs2, rs1, eN");
          b.insn({op, e(2), x(1), x(0), 0});
          break;
        case Format::kBranch: {
          arity(3, "rs1, rs2, target");
          const Operand target = operand(2);
          if (target.kind == OperandKind::kSymbol) {
            b.branch_insn(op, x(0), x(1), target.symbol);
          } else {
            b.insn({op, 0, x(0), x(1), want_imm(target, line_no)});
          }
          break;
        }
        case Format::kJal: {
          arity(2, "rd, target");
          const Operand target = operand(1);
          if (target.kind == OperandKind::kSymbol) {
            b.jal_insn(x(0), target.symbol);
          } else {
            b.insn({op, x(0), 0, 0, want_imm(target, line_no)});
          }
          break;
        }
        case Format::kU:
          arity(2, "rd, imm");
          b.insn({op, x(0), 0, 0, imm(1)});
          break;
        case Format::kEaddie:
          arity(3, "eN, rs1, imm");
          b.insn({op, e(0), x(1), 0, imm(2)});
          break;
        case Format::kEaddix:
          arity(3, "rd, eN, imm");
          b.insn({op, x(0), e(1), 0, imm(2)});
          break;
        case Format::kSystem:
          arity(0, "no operands");
          b.insn({op, 0, 0, 0, 0});
          break;
      }
    }
    if (newline == source.size()) break;
  }
  return b.build();
}

std::string disassemble(const Program& program) {
  std::string out;
  for (std::size_t i = 0; i < program.size(); ++i) {
    out += strfmt("%4zu: %08x  %s\n", i * 4, program.words[i],
                  to_string(program.insts[i]).c_str());
  }
  return out;
}

}  // namespace xbgas::isa
