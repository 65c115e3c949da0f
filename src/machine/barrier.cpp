#include "machine/barrier.hpp"

#include <algorithm>
#include <chrono>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "fault/injector.hpp"
#include "machine/fiber.hpp"
#include "machine/machine.hpp"

namespace xbgas {

namespace {

/// Combining-tree radix: 8 keeps the tree at most 4 levels deep for 1024
/// participants while spreading arrivals over n/8 leaf cache lines.
constexpr int kRadix = 8;

/// Barrier enter/exit events for the calling PE, if it is an SPMD context
/// with tracing bound. a = modeled algorithm, b = modeled exchange rounds.
void trace_barrier(EventKind kind, std::uint64_t at_cycles, int n) {
  PeContext* pe = current_pe_context();
  if (pe == nullptr || !pe->trace().enabled()) return;
  const auto algorithm = static_cast<std::uint64_t>(
      pe->machine().config().net.barrier_algorithm);
  const std::uint64_t rounds =
      n > 1 ? ceil_log2(static_cast<std::uint64_t>(n)) : 0;
  pe->trace().record_at(at_cycles, kind, -1, algorithm, rounds);
}

std::string rank_list(const std::vector<int>& ranks) {
  std::string out = "[";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(ranks[i]);
  }
  return out + "]";
}

std::size_t tree_node_count(int n, std::vector<std::size_t>& offsets,
                            std::vector<int>& widths) {
  std::size_t total = 0;
  int width = (n + kRadix - 1) / kRadix;  // leaves
  for (;;) {
    offsets.push_back(total);
    widths.push_back(width);
    total += static_cast<std::size_t>(width);
    if (width == 1) break;
    width = (width + kRadix - 1) / kRadix;
  }
  return total;
}

void fetch_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_release,
                            std::memory_order_relaxed)) {
  }
}

}  // namespace

ClockSyncBarrier::ClockSyncBarrier(int n_participants, Reconcile reconcile,
                                   std::uint64_t watchdog_ms,
                                   std::vector<int> member_ranks)
    : n_(n_participants),
      reconcile_(std::move(reconcile)),
      watchdog_ms_(watchdog_ms),
      member_ranks_(std::move(member_ranks)),
      nodes_(tree_node_count(std::max(n_participants, 1), level_offset_,
                             level_width_)),
      arrived_slots_(static_cast<std::size_t>(std::max(n_participants, 1))) {
  XBGAS_CHECK(n_participants >= 1, "barrier needs >= 1 participant");
}

int ClockSyncBarrier::fanin(std::size_t level, std::size_t idx) const {
  const int children =
      level == 0 ? n_ : level_width_[level - 1];
  const int first = static_cast<int>(idx) * kRadix;
  return std::min(kRadix, children - first);
}

bool ClockSyncBarrier::combine(int ticket, std::uint64_t& carry) {
  std::size_t idx = static_cast<std::size_t>(ticket) / kRadix;
  for (std::size_t level = 0;; ++level, idx /= kRadix) {
    TreeNode& node = nodes_[level_offset_[level] + idx];
    fetch_max(node.max_cycles, carry);
    // The RMW chain on count orders every sibling's max contribution before
    // the last arriver's read below.
    if (node.count.fetch_add(1, std::memory_order_acq_rel) + 1 <
        fanin(level, idx)) {
      return false;
    }
    carry = node.max_cycles.load(std::memory_order_acquire);
    if (level + 1 == level_offset_.size()) return true;  // completed the root
  }
}

std::uint64_t ClockSyncBarrier::release(std::uint64_t tree_max) {
  // Every other participant has contributed its arrival and is parked in
  // await_release, polling the generation word — the quiescence window the
  // hook contract promises.
  if (all_arrived_) all_arrived_();
  const std::uint64_t res = reconcile_ ? reconcile_(tree_max, n_) : tree_max;
  // Reset the tree for the next generation BEFORE publishing this one:
  // no new arrival can reach the tree until some waiter observes the
  // generation advance, and that acquire/release pair orders the resets.
  for (TreeNode& node : nodes_) {
    node.count.store(0, std::memory_order_relaxed);
    node.max_cycles.store(0, std::memory_order_relaxed);
  }
  tickets_.store(0, std::memory_order_relaxed);
  // result_ is published by the release increment: a waiter reads it only
  // after its acquire-load sees the new generation, and the next generation
  // cannot close (and overwrite it) until that waiter arrives again.
  result_ = res;
  generation_.fetch_add(1, std::memory_order_release);
  return res;
}

std::uint64_t ClockSyncBarrier::await_release(std::uint64_t my_gen) {
  const auto deadline =
      watchdog_ms_ == 0
          ? std::chrono::steady_clock::time_point::max()
          : std::chrono::steady_clock::now() +
                std::chrono::milliseconds(watchdog_ms_);
  for (;;) {
    if (generation_.load(std::memory_order_acquire) != my_gen) {
      // A completed rendezvous is a completed rendezvous: if this waiter's
      // generation closed before a poison landed, it leaves normally and
      // observes the poison at its *next* arrival. Only a generation that
      // can never complete throws. This keeps survivor unwind points
      // deterministic — every PE finishes exactly the barriers that fully
      // rendezvoused before a death, regardless of wakeup timing.
      return result_;
    }
    if (poisoned_flag_.load(std::memory_order_acquire)) {
      if (generation_.load(std::memory_order_acquire) != my_gen) {
        return result_;
      }
      throw_poisoned();
    }
    if (watchdog_ms_ != 0 && std::chrono::steady_clock::now() >= deadline) {
      watchdog_expired();
    }
    // N:M invariant: never block the worker — park cooperatively; the
    // scheduler always re-runs us, so no wakeup can be lost.
    FiberScheduler::yield_waiting();
  }
}

std::uint64_t ClockSyncBarrier::arrive_and_wait(std::uint64_t my_cycles) {
  trace_barrier(EventKind::kBarrierEnter, my_cycles, n_);
  PeContext* pe = current_pe_context();
  const int my_rank = pe != nullptr ? pe->rank() : -1;

  if (poisoned_flag_.load(std::memory_order_acquire)) throw_poisoned();

  // Generation must be captured before the ticket: a legitimate arrival
  // causally follows the previous generation's release, so this load can
  // never observe a stale generation.
  const std::uint64_t my_gen = generation_.load(std::memory_order_acquire);
  const int ticket = tickets_.fetch_add(1, std::memory_order_acq_rel);
  XBGAS_CHECK(ticket < n_,
              "barrier over-subscribed: more arrivals than participants in "
              "one generation");
  arrived_slots_[static_cast<std::size_t>(ticket)].store(
      my_rank, std::memory_order_relaxed);

  std::uint64_t carry = my_cycles;
  std::uint64_t r;
  if (combine(ticket, carry)) {
    r = release(carry);
  } else {
    r = await_release(my_gen);
  }
  trace_barrier(EventKind::kBarrierExit, r, n_);
  return r;
}

void ClockSyncBarrier::throw_poisoned() {
  // Copy out before throwing: another thread may poison again (no-op) or
  // read the info concurrently.
  throw_for(poison_info());
}

void ClockSyncBarrier::throw_for(const BarrierPoison& p) {
  if (p.failed_rank >= 0) throw PeFailedError(p.reason, p.failed_rank);
  if (p.timeout) throw BarrierTimeoutError(p.reason, p.arrived, p.missing);
  throw Error(p.reason.empty()
                  ? "barrier poisoned: a PE terminated abnormally"
                  : p.reason);
}

void ClockSyncBarrier::watchdog_expired() {
  // Watchdog fired: some participants never arrived. Poison with the full
  // rendezvous roster so the hang becomes a diagnosis, then throw like
  // every other waiter will.
  BarrierPoison info;
  info.timeout = true;
  const int n_arrived =
      std::min(tickets_.load(std::memory_order_acquire), n_);
  for (int i = 0; i < n_arrived; ++i) {
    info.arrived.push_back(
        arrived_slots_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed));
  }
  if (!member_ranks_.empty()) {
    for (const int r : member_ranks_) {
      if (std::find(info.arrived.begin(), info.arrived.end(), r) ==
          info.arrived.end()) {
        info.missing.push_back(r);
      }
    }
  }
  info.reason = strfmt(
      "barrier watchdog: %d of %d participants arrived within %llu ms; "
      "arrived ranks %s, missing ranks %s",
      n_arrived, n_, static_cast<unsigned long long>(watchdog_ms_),
      rank_list(info.arrived).c_str(),
      member_ranks_.empty() ? "(unknown)" : rank_list(info.missing).c_str());
  poison(std::move(info));
  PeContext* pe = current_pe_context();
  if (pe != nullptr) {
    pe->machine().fault_injector().counters().barrier_timeouts.fetch_add(
        1, std::memory_order_relaxed);
    pe->trace().record(EventKind::kBarrierTimeout, -1,
                       static_cast<std::uint64_t>(n_arrived),
                       static_cast<std::uint64_t>(n_));
  }
  throw_poisoned();
}

void ClockSyncBarrier::poison() { poison(BarrierPoison{}); }

void ClockSyncBarrier::poison(BarrierPoison info) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!poisoned_flag_.load(std::memory_order_relaxed)) {
    poison_ = std::move(info);
    poisoned_flag_.store(true, std::memory_order_release);
  }
}

bool ClockSyncBarrier::poisoned() const {
  return poisoned_flag_.load(std::memory_order_acquire);
}

BarrierPoison ClockSyncBarrier::poison_info() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return poison_;
}

bool ClockSyncBarrier::excludes_rank(int rank) const {
  // member_ranks_ is const after construction: no lock needed.
  if (member_ranks_.empty()) return false;
  return std::find(member_ranks_.begin(), member_ranks_.end(), rank) ==
         member_ranks_.end();
}

}  // namespace xbgas
