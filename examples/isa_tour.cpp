// Tour of the xBGAS ISA layer (paper §3.2 / Figure 1): build a program with
// the in-memory assembler, disassemble it, execute it on the interpreter
// against two PEs' memories, and dump the extended register file. The
// program writes a value into a *remote* PE's shared segment using the
// extended-addressing instructions (eaddie + esd), then reads it back with
// the raw form (erld).
//
//   ./isa_tour

#include <cstdio>

#include "benchlib/options.hpp"
#include "common/cli.hpp"
#include "isa/encoder.hpp"
#include "isa/hart.hpp"
#include "olb/olb.hpp"
#include "xbrtime/runtime.hpp"

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags});
  xbgas::Machine machine(xbgas::machine_config_from_cli(args, 2));

  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    auto* slot =
        static_cast<std::uint64_t*>(xbgas::xbrtime_malloc(sizeof(std::uint64_t)));
    *slot = 0;
    const auto addr = static_cast<std::int64_t>(
        reinterpret_cast<std::byte*>(slot) - pe.arena().base());
    xbgas::xbrtime_barrier();

    if (pe.rank() == 0) {
      using namespace xbgas::isa;
      ProgramBuilder b;
      b.li(7, static_cast<std::int64_t>(xbgas::object_id_for_pe(1)));
      b.eaddie(6, 7, 0);   // e6 <- object ID of PE 1
      b.li(6, addr);       // x6 <- symmetric address of `slot`
      b.li(8, 0xC0FFEE);
      b.esd(8, 6, 0);      // remote store: PE1.slot <- 0xC0FFEE
      b.erld(9, 6, 6);     // raw remote load back into x9
      b.ecall();
      const Program prog = b.build();

      std::printf("== Generated xBGAS program (PE 0) ==\n");
      for (std::size_t i = 0; i < prog.size(); ++i) {
        std::printf("  %3zu: %08x   %s\n", i * 4, prog.words[i],
                    to_string(prog.insts[i]).c_str());
      }

      Hart hart(pe.port());
      hart.load_program(prog);
      const auto halt = hart.run();
      std::printf("\n== Execution ==\n");
      std::printf("  halt: %s after %llu instructions, %llu cycles\n",
                  halt == Hart::Halt::kEcall ? "ecall" : "other",
                  static_cast<unsigned long long>(hart.stats().instructions),
                  static_cast<unsigned long long>(hart.cycles()));
      std::printf("  remote stores: %llu, remote loads: %llu\n",
                  static_cast<unsigned long long>(hart.stats().remote_stores),
                  static_cast<unsigned long long>(hart.stats().remote_loads));

      std::printf("\n== Extended register file (Figure 1, nonzero regs) ==\n");
      for (unsigned r = 0; r < 32; ++r) {
        if (hart.regs().x(r) != 0 || hart.regs().e(r) != 0) {
          std::printf("  x%-2u = 0x%016llx    e%-2u = 0x%016llx\n", r,
                      static_cast<unsigned long long>(hart.regs().x(r)), r,
                      static_cast<unsigned long long>(hart.regs().e(r)));
        }
      }
      std::printf("\n  x9 (erld result) = 0x%llx\n",
                  static_cast<unsigned long long>(hart.regs().x(9)));

      const auto& olb = pe.olb().stats();
      std::printf("\n== OLB statistics (PE 0) ==\n");
      std::printf("  lookups %llu, hits %llu, local shortcuts %llu\n",
                  static_cast<unsigned long long>(olb.lookups),
                  static_cast<unsigned long long>(olb.hits),
                  static_cast<unsigned long long>(olb.local_shortcuts));
    }
    xbgas::xbrtime_barrier();
    if (pe.rank() == 1) {
      std::printf("\nPE 1 sees slot = 0x%llx (written remotely by PE 0)\n",
                  static_cast<unsigned long long>(*slot));
    }
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(slot);
    xbgas::xbrtime_close();
  });
  return 0;
}
