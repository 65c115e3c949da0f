// Ablation A5: point-to-point get/put latency and bandwidth versus message
// size and stride — the primitives every collective is built from (§3.3).
//
//   bench_pt2pt [--sizes 1,8,64,512,4096,32768] [--strides 1,2,8]

#include <cstdio>
#include <vector>

#include "benchlib/observe.hpp"
#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "common/cli.hpp"
#include "common/strfmt.hpp"
#include "net/sim_clock.hpp"
#include "xbrtime/rma.hpp"

constexpr std::string_view kFlags[] = {"reps", "sizes", "strides"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(
      argc, argv, {xbgas::kMachineFlags, xbgas::kObserveFlags, kFlags});
  const std::vector<int> sizes =
      args.get_int_list("sizes", {1, 8, 64, 512, 4096, 32768});
  const std::vector<int> strides = args.get_int_list("strides", {1, 2, 8});
  const int reps = static_cast<int>(args.get_int("reps", 10));

  std::printf("== Ablation A5: point-to-point strided get/put "
              "(8-byte elements, modeled) ==\n");

  xbgas::AsciiTable table({"elems", "stride", "put cycles", "get cycles",
                           "put MB/s", "get MB/s"});

  xbgas::Machine machine(xbgas::machine_config_from_cli(args, 2));
  machine.run([&](xbgas::PeContext& pe) {
    xbgas::xbrtime_init();
    const std::size_t max_span =
        static_cast<std::size_t>(sizes.back()) *
        static_cast<std::size_t>(strides.back());
    auto* buf = static_cast<std::uint64_t*>(
        xbgas::xbrtime_malloc(max_span * sizeof(std::uint64_t)));
    // The local side also lives in the arena so the cache model sees it and
    // the stride sweep exposes spatial-locality effects.
    auto* local = static_cast<std::uint64_t*>(
        xbgas::xbrtime_malloc(max_span * sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < max_span; ++i) local[i] = 1;
    xbgas::xbrtime_barrier();

    if (pe.rank() == 0) {
      for (const int size : sizes) {
        for (const int stride : strides) {
          const auto nelems = static_cast<std::size_t>(size);
          // Warm the cache model so the table reports steady-state costs.
          xbgas::xbr_put(buf, local, nelems, stride, 1);
          xbgas::xbr_get(local, buf, nelems, stride, 1);
          std::uint64_t put_cycles = 0, get_cycles = 0;
          for (int r = 0; r < reps; ++r) {
            const std::uint64_t t0 = pe.clock().cycles();
            xbgas::xbr_put(buf, local, nelems, stride, 1);
            const std::uint64_t t1 = pe.clock().cycles();
            xbgas::xbr_get(local, buf, nelems, stride, 1);
            const std::uint64_t t2 = pe.clock().cycles();
            put_cycles += t1 - t0;
            get_cycles += t2 - t1;
          }
          put_cycles /= static_cast<std::uint64_t>(reps);
          get_cycles /= static_cast<std::uint64_t>(reps);
          const double bytes = static_cast<double>(nelems) * 8.0;
          const auto mbps = [&](std::uint64_t cycles) {
            return bytes /
                   (static_cast<double>(cycles) / xbgas::SimClock::kDefaultHz) /
                   1e6;
          };
          table.add_row(
              {xbgas::AsciiTable::cell(static_cast<long long>(size)),
               xbgas::AsciiTable::cell(static_cast<long long>(stride)),
               xbgas::AsciiTable::cell(
                   static_cast<unsigned long long>(put_cycles)),
               xbgas::AsciiTable::cell(
                   static_cast<unsigned long long>(get_cycles)),
               xbgas::strfmt("%.1f", mbps(put_cycles)),
               xbgas::strfmt("%.1f", mbps(get_cycles))});
        }
      }
    }
    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(local);
    xbgas::xbrtime_free(buf);
    xbgas::xbrtime_close();
  });

  table.print();
  std::printf("(gets cost a round trip; puts are one-way — the asymmetry the "
              "collectives' direction choices exploit)\n");
  xbgas::emit_observability(machine, args);
  return 0;
}
