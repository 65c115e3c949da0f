#include "fault/injector.hpp"

#include <string>

#include "common/error.hpp"

namespace xbgas {

namespace {

/// Seed one (rank, site) stream: SplitMix64 expansion over the master seed
/// and the stream coordinates, so streams are pairwise independent and any
/// (seed, rank, site) triple maps to one fixed sequence.
std::uint64_t stream_seed(std::uint64_t master, int rank, int site) {
  SplitMix64 mix(master ^ (0x9e3779b97f4a7c15ull *
                           (static_cast<std::uint64_t>(rank) * 8 +
                            static_cast<std::uint64_t>(site) + 1)));
  return mix.next();
}

}  // namespace

FaultInjector::FaultInjector(const FaultConfig& config, int n_pes)
    : config_(config), enabled_(config.any_faults()) {
  validate_fault_config(config, n_pes);
  kills_ = config.kills;
  kill_mask_.assign(static_cast<std::size_t>(n_pes), 0);
  for (const KillSpec& k : kills_) {
    kill_mask_[static_cast<std::size_t>(k.rank)] |=
        k.site == KillSite::kBarrier ? kMaskBarrier
        : k.site == KillSite::kRma   ? kMaskRma
        : k.site == KillSite::kAgree ? kMaskAgree
                                     : kMaskAmo;
  }
  pes_.reserve(static_cast<std::size_t>(n_pes));
  for (int r = 0; r < n_pes; ++r) {
    auto state = std::make_unique<PeState>();
    state->streams.reserve(kStreams);
    for (int s = 0; s < kStreams; ++s) {
      state->streams.emplace_back(stream_seed(config.seed, r, s));
    }
    pes_.push_back(std::move(state));
  }
}

Xoshiro256ss& FaultInjector::stream(int rank, StreamId id) {
  return pes_[static_cast<std::size_t>(rank)]
      ->streams[static_cast<std::size_t>(id)];
}

bool FaultInjector::draw(int rank, StreamId id, double prob) {
  if (prob <= 0.0) return false;
  // Draw unconditionally once the site is active so the stream position —
  // and therefore every later decision — depends only on program order.
  return stream(rank, id).next_double() < prob;
}

void FaultInjector::corrupt_payload(int rank, void* data,
                                    std::size_t elem_size, std::size_t nelems,
                                    int stride) {
  if (nelems == 0 || elem_size == 0) return;
  Xoshiro256ss& bits = stream(rank, StreamId::kBits);
  const std::uint64_t elem = bits.next_below(nelems);
  const std::uint64_t bit = bits.next_below(elem_size * 8);
  const std::size_t step = elem_size * static_cast<std::size_t>(stride);
  auto* p = static_cast<unsigned char*>(data);
  p[static_cast<std::size_t>(elem) * step + bit / 8] ^=
      static_cast<unsigned char>(1u << (bit % 8));
}

void FaultInjector::count_and_maybe_kill(int rank, KillSite site,
                                         const char* site_name) {
  std::uint64_t& n =
      pes_[static_cast<std::size_t>(rank)]->site_count[site_index(site)];
  ++n;
  for (const KillSpec& k : kills_) {
    if (k.rank != rank || k.site != site || k.at != n) continue;
    counters_.kills.fetch_add(1, std::memory_order_relaxed);
    throw PeKilledError("scripted fault: PE " + std::to_string(rank) +
                            " killed at " + site_name + " #" +
                            std::to_string(k.at),
                        rank);
  }
}

}  // namespace xbgas
