// Quickstart: the xbrtime basics in ~60 lines.
//
//   * boot a simulated xBGAS machine (4 PEs by default),
//   * initialize the runtime on every PE (SPMD style),
//   * allocate symmetric shared memory,
//   * move data with one-sided put/get,
//   * synchronize with barriers, and
//   * combine values with a broadcast + reduction.
//
//   ./quickstart [--pes 4] [--topology flat]

#include <cstdio>

#include "benchlib/options.hpp"
#include "collectives/collectives.hpp"
#include "common/cli.hpp"
#include "xbrtime/rma.hpp"

constexpr std::string_view kFlags[] = {"pes"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 4));

  xbgas::Machine machine(xbgas::machine_config_from_cli(args, n_pes));
  machine.run([&](xbgas::PeContext&) {
    xbgas::xbrtime_init();
    const int me = xbgas::xbrtime_mype();
    const int n = xbgas::xbrtime_num_pes();

    // Symmetric allocation: the same offset on every PE, so any PE can
    // address any other PE's copy.
    auto* mailbox = static_cast<long*>(xbgas::xbrtime_malloc(sizeof(long)));
    *mailbox = -1;
    xbgas::xbrtime_barrier();

    // One-sided put: write my rank into my right neighbour's mailbox.
    const long token = 100 + me;
    xbgas::xbr_put(mailbox, &token, 1, 1, (me + 1) % n);
    xbgas::xbrtime_barrier();

    std::printf("PE %d: mailbox = %ld (from PE %d)\n", me, *mailbox,
                (me - 1 + n) % n);

    // One-sided get: read the left neighbour's mailbox.
    long peeked = 0;
    xbgas::xbr_get(&peeked, mailbox, 1, 1, (me - 1 + n) % n);

    // Collectives: PE 0 broadcasts a factor; everyone reduces a product.
    auto* factor = static_cast<long*>(xbgas::xbrtime_malloc(sizeof(long)));
    const long two = 2;
    xbgas::broadcast(factor, &two, 1, 1, /*root=*/0);

    auto* contrib = static_cast<long*>(xbgas::xbrtime_malloc(sizeof(long)));
    *contrib = (me + 1) * *factor;
    long total = 0;
    xbgas::reduce<xbgas::OpSum>(&total, contrib, 1, 1, /*root=*/0);
    if (me == 0) {
      std::printf("PE 0: sum of 2*(rank+1) over %d PEs = %ld (expected %d)\n",
                  n, total, n * (n + 1));
    }

    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(contrib);
    xbgas::xbrtime_free(factor);
    xbgas::xbrtime_free(mailbox);
    xbgas::xbrtime_close();
  });
  return 0;
}
