// asm_runner — assemble and execute an xBGAS assembly file on a simulated
// machine, SPMD style: every PE runs the same program with its rank in a0
// and its PE count in a1 (so programs can branch by rank), against its own
// memory and OLB. Demonstrates the full toolchain substrate: text assembly
// -> encoded words -> interpreter -> remote effects.
//
//   ./asm_runner <file.s> [--pes 2] [--dump-x 5,9,10]
//
// With no file argument, runs a built-in demo program that passes each
// PE's rank to its right neighbour through remote stores.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "benchlib/options.hpp"
#include "common/cli.hpp"
#include "isa/assembler.hpp"
#include "isa/hart.hpp"
#include "olb/olb.hpp"
#include "xbrtime/runtime.hpp"

namespace {

// Demo: store (100 + my rank) into the right neighbour's scratch word, then
// load my own scratch back. a0 = rank, a1 = n_pes; the scratch word lives
// at a fixed symmetric offset prepared by the host below and passed in a2.
constexpr const char* kDemo = R"(
    # next = (rank + 1) % n
    addi t0, a0, 1
    rem  t0, t0, a1
    addi t0, t0, 1        # object ID = rank + 1
    eaddie e6, t0, 0      # e6 <- neighbour's object ID
    mv   x6, a2           # x6 <- symmetric scratch address
    addi t2, a0, 100
    esd  t2, 0(x6)        # remote store into the neighbour
    ecall
)";

}  // namespace

constexpr std::string_view kFlags[] = {"dump-x", "pes"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags, kFlags},
                            /*max_positional=*/1);
  const int n_pes = static_cast<int>(args.get_int("pes", 2));

  std::string source = kDemo;
  if (!args.positional().empty()) {
    std::ifstream in(args.positional().front());
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n",
                   args.positional().front().c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }

  const xbgas::isa::Program program = xbgas::isa::assemble(source);
  std::printf("== assembled %zu instructions ==\n%s\n", program.size(),
              xbgas::isa::disassemble(program).c_str());

  const auto dump = args.get_int_list("dump-x", {});
  xbgas::Machine machine(xbgas::machine_config_from_cli(args, n_pes));
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    auto* scratch =
        static_cast<std::uint64_t*>(xbgas::xbrtime_malloc(sizeof(std::uint64_t)));
    *scratch = 0;
    const auto addr = static_cast<std::uint64_t>(
        reinterpret_cast<std::byte*>(scratch) - pe.arena().base());
    xbgas::xbrtime_barrier();

    xbgas::isa::Hart hart(pe.port());
    hart.regs().set_x(10, static_cast<std::uint64_t>(pe.rank()));   // a0
    hart.regs().set_x(11, static_cast<std::uint64_t>(n_pes));       // a1
    hart.regs().set_x(12, addr);                                    // a2
    hart.load_program(program);
    const auto halt = hart.run();
    pe.clock().advance(hart.cycles());
    xbgas::xbrtime_barrier();

    std::printf("PE %d: halt=%s insts=%llu cycles=%llu scratch=0x%llx\n",
                pe.rank(),
                halt == xbgas::isa::Hart::Halt::kEcall ? "ecall" : "other",
                static_cast<unsigned long long>(hart.stats().instructions),
                static_cast<unsigned long long>(hart.cycles()),
                static_cast<unsigned long long>(*scratch));
    for (const int reg : dump) {
      std::printf("PE %d: x%d = 0x%llx\n", pe.rank(), reg,
                  static_cast<unsigned long long>(
                      hart.regs().x(static_cast<unsigned>(reg))));
    }
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(scratch);
    xbgas::xbrtime_close();
  });
  return 0;
}
