// OSU-style collective latency sweep on cluster topologies (paper §7's
// location-aware optimization, generalized): for every (PE count, message
// size, collective kind) the sweep measures every schedule candidate —
// flat k-nomial trees at radices {2,4,8}, segmented rings, and the
// multi-level hierarchical engine — then reports the flat-binomial
// baseline, the per-family bests, the analytic-model pick, and the tuned
// (measured-argmin) pick. BENCH_osu.json in the repo root is a committed
// run; scripts/check.sh gates it (tuned <= model everywhere, hierarchy
// beats the flat tree at large messages on the biggest machine).
//
//   bench_osu_sweep [--pes 16,64,256] [--sizes 128,1024,8192,16384]
//                   [--per-hop 40] [--json PATH] [--tune-table PATH]
//
// --tune-table merges every PE count's winners into one table loadable
// via --coll-tune-table on any binary in the repo.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "benchlib/options.hpp"
#include "benchlib/table.hpp"
#include "collectives/tuner.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strfmt.hpp"

namespace {

/// The cluster shape for a PE count: two boundary levels when 16 divides n
/// (pairs-of-8 inside nodes of 16 would not divide 16 itself, so use
/// 4-within-16), else a single node boundary.
std::string topology_for(int n) {
  if (n % 16 == 0 && n > 16) return "cluster4x8_16x64";
  if (n % 4 == 0 && n > 4) return "cluster4x32";
  throw xbgas::Error("bench_osu_sweep: --pes entries must be multiples of 4, got " +
                     std::to_string(n));
}

struct OsuRow {
  xbgas::CollKind kind;
  std::size_t nelems = 0;
  std::size_t bytes = 0;
  std::uint64_t flat_tree = 0;  ///< binomial (radix-2) flat tree
  std::uint64_t ring = 0;       ///< best ring candidate
  std::uint64_t hier = 0;       ///< best hierarchical candidate (0: none)
  std::uint64_t model = 0;      ///< the alpha-beta model's pick, measured
  std::uint64_t tuned = 0;      ///< measured argmin over all candidates
  xbgas::TuneCandidate winner;
};

bool same_candidate(const xbgas::TuneCandidate& a, xbgas::CollAlgo algo,
                    int radix, std::size_t chunk) {
  return a.algo == algo && a.radix == radix && a.chunk == chunk;
}

}  // namespace

constexpr std::string_view kFlags[] = {
    "json", "per-hop", "pes", "sizes", "tune-table",
};

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv, {xbgas::kMachineFlags, kFlags});
  const std::vector<int> pes = args.get_int_list("pes", {16, 64, 256});
  std::vector<std::size_t> sizes;
  for (const int s : args.get_int_list("sizes", {128, 1024, 8192, 16384})) {
    sizes.push_back(static_cast<std::size_t>(s));
  }
  const std::string json_path = args.get("json", "");
  const std::string table_path = args.get("tune-table", "");

  xbgas::TuneTable merged;
  std::string json = "{\n  \"bench\": \"osu_sweep\",\n  \"machines\": [\n";

  for (std::size_t mi = 0; mi < pes.size(); ++mi) {
    const int n = pes[mi];
    xbgas::MachineConfig config = xbgas::machine_config_from_cli(args, n);
    config.topology_name = topology_for(n);
    // Slim segments so the 256-PE point stays laptop-friendly.
    if (!args.has("shared-mb")) config.layout.shared_bytes = 1 << 20;
    if (!args.has("private-mb")) config.layout.private_bytes = 64 * 1024;
    // Boundary crossings must cost more than on-node hops for locality to
    // be worth exploiting (the premise of the cluster fabric).
    config.net.per_hop_cycles =
        static_cast<std::uint64_t>(args.get_int("per-hop", 40));

    std::printf("== OSU sweep: %d PEs on %s ==\n", n,
                config.topology_name.c_str());

    const std::vector<xbgas::TuneCandidate> cands =
        xbgas::default_tune_candidates(config);
    std::vector<xbgas::TuneMeasurement> measurements;
    const xbgas::TuneTable table =
        xbgas::build_tune_table(config, sizes, cands, &measurements);
    for (const xbgas::TuneEntry& e : table.entries()) merged.insert(e);

    // The model's pick per point, for the tuned-vs-model comparison.
    const xbgas::CollectivePolicy model(config);

    std::map<std::pair<int, std::size_t>, OsuRow> rows;
    for (const xbgas::TuneMeasurement& m : measurements) {
      OsuRow& row = rows[{static_cast<int>(m.kind), m.nelems}];
      row.kind = m.kind;
      row.nelems = m.nelems;
      row.bytes = m.bytes;
      if (same_candidate(m.cand, xbgas::CollAlgo::kTree, 2, 0)) {
        row.flat_tree = m.cycles;
      }
      if (m.cand.algo == xbgas::CollAlgo::kRing &&
          (row.ring == 0 || m.cycles < row.ring)) {
        row.ring = m.cycles;
      }
      if (m.cand.algo == xbgas::CollAlgo::kHier &&
          (row.hier == 0 || m.cycles < row.hier)) {
        row.hier = m.cycles;
      }
      if (row.tuned == 0 || m.cycles < row.tuned) {
        row.tuned = m.cycles;
        row.winner = m.cand;
      }
      const xbgas::CollDecision d =
          model.decide(m.kind, n, m.nelems, sizeof(long));
      if (same_candidate(m.cand, d.algo, d.radix, d.chunk)) {
        row.model = m.cycles;
      }
    }

    xbgas::AsciiTable out({"kind", "bytes", "flat tree", "ring", "hier",
                           "model", "tuned", "winner"});
    json += xbgas::strfmt(
        "    {\"pes\": %d, \"topology\": \"%s\", \"results\": [\n", n,
        config.topology_name.c_str());
    std::size_t i = 0;
    for (const auto& [key, row] : rows) {
      const std::string winner = xbgas::strfmt(
          "%s r%d c%zu", xbgas::coll_algo_name(row.winner.algo),
          row.winner.radix, row.winner.chunk);
      out.add_row({xbgas::coll_kind_name(row.kind),
                   xbgas::AsciiTable::cell(
                       static_cast<unsigned long long>(row.bytes)),
                   xbgas::AsciiTable::cell(
                       static_cast<unsigned long long>(row.flat_tree)),
                   xbgas::AsciiTable::cell(
                       static_cast<unsigned long long>(row.ring)),
                   xbgas::AsciiTable::cell(
                       static_cast<unsigned long long>(row.hier)),
                   xbgas::AsciiTable::cell(
                       static_cast<unsigned long long>(row.model)),
                   xbgas::AsciiTable::cell(
                       static_cast<unsigned long long>(row.tuned)),
                   winner});
      json += xbgas::strfmt(
          "      {\"kind\": \"%s\", \"nelems\": %zu, \"bytes\": %zu, "
          "\"flat_tree\": %llu, \"ring\": %llu, \"hier\": %llu, "
          "\"model\": %llu, \"tuned\": %llu, \"winner\": \"%s\", "
          "\"winner_radix\": %d, \"winner_chunk\": %zu}%s\n",
          xbgas::coll_kind_name(row.kind), row.nelems, row.bytes,
          static_cast<unsigned long long>(row.flat_tree),
          static_cast<unsigned long long>(row.ring),
          static_cast<unsigned long long>(row.hier),
          static_cast<unsigned long long>(row.model),
          static_cast<unsigned long long>(row.tuned),
          xbgas::coll_algo_name(row.winner.algo), row.winner.radix,
          row.winner.chunk, ++i < rows.size() ? "," : "");
    }
    out.print();
    json += "    ]}";
    json += mi + 1 < pes.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) throw xbgas::Error("cannot write " + json_path);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!table_path.empty()) {
    merged.save(table_path);
    std::printf("wrote %s (%zu entries)\n", table_path.c_str(),
                merged.size());
  }
  return 0;
}
