// Distributed sample sort built on the paper's scatter/gather collectives:
// the root scatters unsorted keys (uneven slices — the xBGAS scatter's
// headline feature, §4.5), PEs sort locally and exchange via splitters, and
// the root gathers the globally sorted result.
//
//   ./distributed_sort [--pes 8] [--keys 65536]

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "benchlib/options.hpp"
#include "collectives/collectives.hpp"
#include "collectives/composed.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "xbrtime/rma.hpp"

constexpr std::string_view kFlags[] = {"keys", "pes"};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags, kFlags});
  const int n_pes = static_cast<int>(args.get_int("pes", 8));
  const auto total_keys =
      static_cast<std::size_t>(args.get_int("keys", 65536));

  xbgas::Machine machine(xbgas::machine_config_from_cli(args, n_pes));
  machine.run([&](xbgas::PeContext&) {
    xbgas::xbrtime_init();
    const int me = xbgas::xbrtime_mype();
    const int n = xbgas::xbrtime_num_pes();
    const auto un = static_cast<std::size_t>(n);

    // The root owns the unsorted input; slices are deliberately uneven.
    std::vector<int> msgs(un), disp(un);
    {
      std::size_t assigned = 0;
      for (std::size_t r = 0; r < un; ++r) {
        const std::size_t share =
            r + 1 == un ? total_keys - assigned
                        : total_keys / un + (r % 2 ? -(total_keys / (8 * un))
                                                   : total_keys / (8 * un));
        msgs[r] = static_cast<int>(share);
        assigned += share;
      }
      std::exclusive_scan(msgs.begin(), msgs.end(), disp.begin(), 0);
    }

    std::vector<std::uint32_t> input(total_keys);
    if (me == 0) {
      xbgas::Xoshiro256ss rng(2027);
      for (auto& k : input) {
        k = static_cast<std::uint32_t>(rng.next() & 0xFFFFFF);
      }
    }

    // 1. Scatter the raw keys.
    const auto mine = static_cast<std::size_t>(msgs[static_cast<std::size_t>(me)]);
    std::vector<std::uint32_t> slice(std::max<std::size_t>(mine, 1));
    xbgas::scatter(slice.data(), input.data(), msgs.data(), disp.data(),
                   total_keys, 0);
    slice.resize(mine);

    // 2. Local sort, then splitter-based redistribution: fixed splitters
    //    over the 24-bit key space keep this example simple.
    std::sort(slice.begin(), slice.end());
    std::vector<std::int32_t> send_cnt(un, 0);
    for (const auto k : slice) {
      const auto dest = std::min<std::size_t>(
          un - 1, static_cast<std::size_t>(
                      (static_cast<std::uint64_t>(k) * un) >> 24));
      ++send_cnt[dest];
    }

    // Exchange counts and offsets, then deliver keys with one-sided puts
    // (the same pattern the NAS IS benchmark uses).
    auto* recv_cnt = static_cast<std::int32_t*>(
        xbgas::xbrtime_malloc(un * sizeof(std::int32_t)));
    auto* my_off_for = static_cast<std::int32_t*>(
        xbgas::xbrtime_malloc(un * sizeof(std::int32_t)));
    auto* put_off = static_cast<std::int32_t*>(
        xbgas::xbrtime_malloc(un * sizeof(std::int32_t)));
    xbgas::alltoall(recv_cnt, send_cnt.data(), 1);
    std::int32_t recv_total = 0;
    for (std::size_t s = 0; s < un; ++s) {
      my_off_for[s] = recv_total;
      recv_total += recv_cnt[s];
    }
    xbgas::alltoall(put_off, my_off_for, 1);

    const std::size_t recv_cap = 4 * total_keys / un + 64;
    auto* recv_buf = static_cast<std::uint32_t*>(
        xbgas::xbrtime_malloc(recv_cap * sizeof(std::uint32_t)));
    std::size_t sent = 0;
    for (std::size_t d = 0; d < un; ++d) {
      const auto cnt = static_cast<std::size_t>(send_cnt[d]);
      if (cnt > 0) {
        xbgas::xbr_put(recv_buf + put_off[d], slice.data() + sent, cnt, 1,
                       static_cast<int>(d));
        sent += cnt;
      }
    }
    xbgas::xbrtime_barrier();

    // 3. Local merge of received runs, then gather the sorted slices.
    std::vector<std::uint32_t> sorted(recv_buf, recv_buf + recv_total);
    std::sort(sorted.begin(), sorted.end());

    auto* counts = static_cast<std::int32_t*>(
        xbgas::xbrtime_malloc(un * sizeof(std::int32_t)));
    std::int32_t mine_sorted = recv_total;
    xbgas::fcollect(counts, &mine_sorted, 1);
    std::vector<int> gmsgs(un), gdisp(un);
    for (std::size_t r = 0; r < un; ++r) gmsgs[r] = counts[r];
    std::exclusive_scan(gmsgs.begin(), gmsgs.end(), gdisp.begin(), 0);

    std::vector<std::uint32_t> result(total_keys);
    sorted.resize(std::max<std::size_t>(sorted.size(), 1));
    xbgas::gather(result.data(), sorted.data(), gmsgs.data(), gdisp.data(),
                  total_keys, 0);

    if (me == 0) {
      std::vector<std::uint32_t> reference = input;
      std::sort(reference.begin(), reference.end());
      const bool ok = result == reference;
      std::printf("distributed sort of %zu keys over %d PEs: %s\n",
                  total_keys, n, ok ? "SORTED (matches std::sort)" : "FAILED");
    }

    xbgas::xbrtime_barrier();
    xbgas::xbrtime_free(counts);
    xbgas::xbrtime_free(recv_buf);
    xbgas::xbrtime_free(put_off);
    xbgas::xbrtime_free(my_off_for);
    xbgas::xbrtime_free(recv_cnt);
    xbgas::xbrtime_close();
  });
  return 0;
}
