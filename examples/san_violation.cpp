// Deliberately buggy program — the XbrSan negative smoke (docs/SANITIZER.md).
//
// Every PE allocates an 8-element symmetric buffer; PE 0 then puts 64
// elements through it, overrunning its neighbour's allocation by 448 bytes.
// Under --xbrsan bounds|full (default here: full) the sanitizer rejects the
// transfer before a single byte moves, the PE unwinds, and Machine::run
// surfaces the violation as an SpmdRegionError naming the check and entry
// point. The example *verifies* that this happens and exits 0 only if the
// bug was caught — so CI can assert the detector actually detects.
//
//   ./san_violation [--pes 2] [--xbrsan full]

#include <cstdio>
#include <cstring>
#include <vector>

#include "benchlib/options.hpp"
#include "common/cli.hpp"
#include "fault/errors.hpp"
#include "xbrtime/rma.hpp"

constexpr std::string_view kFlags[] = {"pes"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 2));

  xbgas::MachineConfig config = xbgas::machine_config_from_cli(args, n_pes);
  if (!args.has("xbrsan")) config.san.mode = xbgas::SanMode::kFull;
  if (!config.san.enabled()) {
    std::fprintf(stderr,
                 "san_violation: refusing to run with --xbrsan off — this "
                 "program contains a real out-of-bounds write\n");
    return 2;
  }

  xbgas::Machine machine(config);
  try {
    machine.run([&](xbgas::PeContext&) {
      xbgas::xbrtime_init();
      auto* buf = static_cast<long*>(xbgas::xbrtime_malloc(8 * sizeof(long)));
      xbgas::xbrtime_barrier();
      if (xbgas::xbrtime_mype() == 0) {
        // BUG: 64 elements into an 8-element symmetric allocation.
        std::vector<long> src(64, 7);
        xbgas::xbr_put(buf, src.data(), 64, 1, 1);
      }
      xbgas::xbrtime_barrier();
      xbgas::xbrtime_free(buf);
      xbgas::xbrtime_close();
    });
  } catch (const xbgas::SpmdRegionError& e) {
    if (std::strstr(e.what(), "XbrSan[out_of_bounds]") != nullptr &&
        std::strstr(e.what(), "xbr_put") != nullptr) {
      std::printf("san_violation: XbrSan caught the planted bug:\n%s\n",
                  e.what());
      return 0;
    }
    std::fprintf(stderr,
                 "san_violation: region failed, but not with the expected "
                 "out-of-bounds diagnostic:\n%s\n",
                 e.what());
    return 1;
  }
  std::fprintf(stderr,
               "san_violation: the out-of-bounds put was NOT detected\n");
  return 1;
}
