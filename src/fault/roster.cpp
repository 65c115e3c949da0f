#include "fault/roster.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/error.hpp"
#include "machine/fiber.hpp"

namespace xbgas {

namespace {
/// Safety net when no watchdog is configured: an agreement that cannot
/// complete (an expected rank is stuck outside the protocol) must become a
/// diagnosis, not a hang.
constexpr std::uint64_t kDefaultAgreeTimeoutMs = 60'000;

[[noreturn]] void throw_partitioned(int rank, std::uint64_t seq,
                                    const std::vector<int>& majority) {
  std::string msg;
  if (majority.empty()) {
    msg = "xbr_agree quorum: agreement #" + std::to_string(seq) +
          " found no majority component (even split); rank " +
          std::to_string(rank) + " unwinds to avoid split-brain";
  } else {
    msg = "xbr_agree quorum: rank " + std::to_string(rank) +
          " was cut off from the majority component of agreement #" +
          std::to_string(seq) + " (majority [";
    for (std::size_t i = 0; i < majority.size(); ++i) {
      if (i != 0) msg += ',';
      msg += std::to_string(majority[i]);
    }
    msg += "] decides without it)";
  }
  throw PartitionedError(msg, rank, majority);
}
}  // namespace

RecoveryState::RecoveryState(int n_pes)
    : n_pes_(n_pes),
      failed_(static_cast<std::size_t>(n_pes), 0),
      acknowledged_(static_cast<std::size_t>(n_pes), 0),
      participations_(static_cast<std::size_t>(n_pes), 0) {}

void RecoveryState::mark_failed(int rank) {
  XBGAS_CHECK(rank >= 0 && rank < n_pes_, "PE rank out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  failed_[static_cast<std::size_t>(rank)] = 1;
}

bool RecoveryState::failed(int rank) const {
  XBGAS_CHECK(rank >= 0 && rank < n_pes_, "PE rank out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_[static_cast<std::size_t>(rank)] != 0;
}

int RecoveryState::n_failed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  int n = 0;
  for (const char f : failed_) n += f != 0 ? 1 : 0;
  return n;
}

std::vector<int> RecoveryState::failed_ranks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (std::size_t r = 0; r < failed_.size(); ++r) {
    if (failed_[r] != 0) out.push_back(static_cast<int>(r));
  }
  return out;
}

bool RecoveryState::has_unacknowledged_failure() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t r = 0; r < failed_.size(); ++r) {
    if (failed_[r] != 0 && acknowledged_[r] == 0) return true;
  }
  return false;
}

bool RecoveryState::acknowledged(int rank) const {
  XBGAS_CHECK(rank >= 0 && rank < n_pes_, "PE rank out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto i = static_cast<std::size_t>(rank);
  return failed_[i] != 0 && acknowledged_[i] != 0;
}

std::vector<int> RecoveryState::excluded_ranks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (std::size_t r = 0; r < acknowledged_.size(); ++r) {
    if (acknowledged_[r] != 0) out.push_back(static_cast<int>(r));
  }
  return out;
}

std::uint64_t RecoveryState::epoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

void RecoveryState::note_link_down(int a, int b) {
  if (a > b) std::swap(a, b);
  const std::lock_guard<std::mutex> lock(mutex_);
  down_pairs_.insert({a, b});
}

void RecoveryState::note_link_up(int a, int b) {
  if (a > b) std::swap(a, b);
  const std::lock_guard<std::mutex> lock(mutex_);
  down_pairs_.erase({a, b});
  // A healed link wipes its escalation notes: the peer is reachable again,
  // so pre-heal exhaustion must not evict it later.
  unreachable_notes_.erase({a, b});
}

void RecoveryState::note_unreachable(int reporter, int suspect) {
  const int a = reporter < suspect ? reporter : suspect;
  const int b = reporter < suspect ? suspect : reporter;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++unreachable_notes_[{a, b}];
}

std::vector<std::pair<int, int>> RecoveryState::down_pairs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<std::pair<int, int>>(down_pairs_.begin(),
                                          down_pairs_.end());
}

std::vector<int> RecoveryState::majority_component_locked(
    const std::vector<int>& live) const {
  if (live.empty()) return {};
  // Whole graph: everyone is one component (the common, fault-free case).
  if (down_pairs_.empty()) return live;
  // Union-find over the live set; an edge exists between every pair whose
  // direct path is not down. O(live^2) set probes — recovery cold path.
  const std::size_t n = live.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const int a = live[i] < live[j] ? live[i] : live[j];
      const int b = live[i] < live[j] ? live[j] : live[i];
      if (down_pairs_.count({a, b}) != 0) continue;
      const std::size_t ri = find(i), rj = find(j);
      if (ri != rj) parent[ri] = rj;
    }
  }
  std::vector<std::size_t> comp_size(n, 0);
  for (std::size_t i = 0; i < n; ++i) ++comp_size[find(i)];
  std::size_t best_root = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (2 * comp_size[find(i)] > n) {
      best_root = find(i);
      break;
    }
  }
  if (best_root == n) return {};  // no strict majority: even split
  std::vector<int> majority;
  for (std::size_t i = 0; i < n; ++i) {
    if (find(i) == best_root) majority.push_back(live[i]);
  }
  return majority;  // ascending: `live` is ascending
}

std::uint64_t RecoveryState::begin_agreement(int rank) {
  XBGAS_CHECK(rank >= 0 && rank < n_pes_, "PE rank out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  return ++participations_[static_cast<std::size_t>(rank)];
}

RecoveryState::Round& RecoveryState::round_locked(
    std::uint64_t seq, const std::vector<int>& expected) {
  return rounds_[RoundKey{seq, expected}];
}

void RecoveryState::contribute(int rank, std::uint64_t seq,
                               const std::vector<int>& expected,
                               std::uint64_t flag, std::uint64_t cycles) {
  const std::lock_guard<std::mutex> lock(mutex_);
  round_locked(seq, expected).contrib[rank] = Contribution{flag, cycles};
}

AgreeDecision RecoveryState::await_decision(int rank, std::uint64_t seq,
                                            const std::vector<int>& expected,
                                            std::uint64_t timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(timeout_ms == 0 ? kDefaultAgreeTimeoutMs
                                                : timeout_ms);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Round& rd = round_locked(seq, expected);
    if (rd.decided) {
      if (std::binary_search(rd.decision.partitioned.begin(),
                             rd.decision.partitioned.end(), rank)) {
        throw_partitioned(rank, seq, rd.decision.roster);
      }
      return rd.decision;
    }

    // The live expected set, then its majority component over the
    // reachability graph (full mesh minus the down pairs). Both are
    // re-derived on every wake: a death or a link transition mid-agreement
    // moves the leadership/quorum verdict without any handoff message.
    std::vector<int> live;
    for (const int r : expected) {
      if (failed_[static_cast<std::size_t>(r)] == 0) live.push_back(r);
    }
    const std::vector<int> majority = majority_component_locked(live);

    if (!majority.empty() && majority.front() == rank) {
      // Quorum leader: the smallest live member of the majority component.
      // The decision needs every *majority* contribution — the minority is
      // unreachable, so waiting for it would forfeit quorum-side progress.
      bool complete = true;
      for (const int r : majority) {
        if (rd.contrib.find(r) == rd.contrib.end()) complete = false;
      }
      if (complete) {
        // Evict unreachable-but-alive peers: any pair some PE escalated
        // (retries exhausted across a dead link) whose endpoints are both
        // still in the majority loses its larger endpoint — the survivors
        // expel it exactly like a dead rank, restoring an all-reachable
        // roster.
        std::vector<char> in_majority(static_cast<std::size_t>(n_pes_), 0);
        for (const int r : majority) {
          in_majority[static_cast<std::size_t>(r)] = 1;
        }
        std::vector<char> evicted(static_cast<std::size_t>(n_pes_), 0);
        for (const auto& [pair, count] : unreachable_notes_) {
          if (count <= 0) continue;
          if (in_majority[static_cast<std::size_t>(pair.first)] != 0 &&
              in_majority[static_cast<std::size_t>(pair.second)] != 0) {
            evicted[static_cast<std::size_t>(pair.second)] = 1;
          }
        }
        // Fold the majority contributions in binomial-tree order (the order
        // the xBGAS implementation would merge partial rosters up the tree;
        // AND and max are associative, so the fold shape only matters for
        // the modeled cost, charged by xbr_agree).
        AgreeDecision d;
        d.seq = seq;
        d.flag = ~std::uint64_t{0};
        for (const int r : majority) {
          if (evicted[static_cast<std::size_t>(r)] != 0) {
            d.partitioned.push_back(r);
            continue;
          }
          const auto it = rd.contrib.find(r);
          d.roster.push_back(r);
          d.flag &= it->second.flag;
          d.max_cycles = std::max(d.max_cycles, it->second.cycles);
        }
        for (const int r : live) {
          if (in_majority[static_cast<std::size_t>(r)] == 0) {
            d.partitioned.push_back(r);
          }
        }
        std::sort(d.partitioned.begin(), d.partitioned.end());
        rd.decision = d;
        rd.decided = true;
        ++epoch_;
        for (const int r : expected) {
          const auto i = static_cast<std::size_t>(r);
          if (failed_[i] != 0) acknowledged_[i] = 1;
        }
        // Pre-acknowledge the partitioned ranks: when they unwind with
        // PartitionedError and Machine::run marks them failed, the region
        // still counts as recovered — the majority collectively chose to
        // proceed without them.
        for (const int r : d.partitioned) {
          acknowledged_[static_cast<std::size_t>(r)] = 1;
        }
        counters_.agreements.fetch_add(1, std::memory_order_relaxed);
        // The leader is the smallest majority member and never evicts
        // itself (evictions take the larger endpoint), so it returns.
        return rd.decision;
      }
    } else if (majority.empty() && !live.empty() && live.front() == rank) {
      // No component holds a strict majority (an even split). Once every
      // live rank has contributed — proof none of them can be decided for —
      // the global smallest live rank folds an explicit no-quorum decision:
      // empty roster, everyone partitioned, every caller unwinds typed.
      bool all_contributed = true;
      for (const int r : live) {
        if (rd.contrib.find(r) == rd.contrib.end()) all_contributed = false;
      }
      if (all_contributed) {
        AgreeDecision d;
        d.seq = seq;
        d.flag = 0;
        d.partitioned = live;
        rd.decision = d;
        rd.decided = true;
        ++epoch_;
        for (const int r : expected) {
          const auto i = static_cast<std::size_t>(r);
          if (failed_[i] != 0) acknowledged_[i] = 1;
        }
        for (const int r : d.partitioned) {
          acknowledged_[static_cast<std::size_t>(r)] = 1;
        }
        counters_.agreements.fetch_add(1, std::memory_order_relaxed);
        throw_partitioned(rank, seq, rd.decision.roster);
      }
    }

    if (std::chrono::steady_clock::now() >= deadline) {
      std::vector<int> missing;
      for (const int r : expected) {
        if (failed_[static_cast<std::size_t>(r)] == 0 &&
            rd.contrib.find(r) == rd.contrib.end()) {
          missing.push_back(r);
        }
      }
      std::string msg = "xbr_agree timed out on rank " + std::to_string(rank) +
                        " (agreement #" + std::to_string(seq) +
                        "): no contribution or failure from ranks [";
      for (std::size_t i = 0; i < missing.size(); ++i) {
        if (i != 0) msg += ',';
        msg += std::to_string(missing[i]);
      }
      msg += "]";
      throw AgreementTimeoutError(msg, std::move(missing));
    }

    // N:M invariant: never block the worker — it may be the only one left
    // to run the contributor or leader fiber this wait depends on. Release
    // the board, park cooperatively, re-derive everything on resume. (`rd`
    // is refetched at the loop top; map references stay valid regardless.)
    lock.unlock();
    FiberScheduler::yield_waiting();
    lock.lock();
  }
}

}  // namespace xbgas
