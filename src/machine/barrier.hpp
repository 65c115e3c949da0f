#pragma once

// ClockSyncBarrier — the rendezvous primitive under every xbrtime barrier.
//
// Besides synchronizing PE contexts, the barrier is where simulated time is
// reconciled: each participant arrives with its SimClock value; the last
// arriver runs a reconcile callback (normally NetworkModel::reconcile_phase,
// which folds in shared-fabric serialization and the barrier's own modeled
// cost) and every participant leaves with the agreed post-barrier clock.
//
// Arrival is a radix-8 *combining tree* (docs/SCALING.md): each arriver
// folds its clock into a leaf node with two atomic operations; the last
// arriver at a node carries the node's max up one level, so the critical
// path from first arrival to release is O(log_8 n) combining steps and no
// arrival ever takes the barrier mutex. The old central mutex+counter
// serialized all n arrivals through one critical section — measurable at
// 12 PEs, prohibitive at 1024. Release is a single generation word every
// waiter observes (sense-reversal broadcast).
//
// Waiting has one shape: a waiter probes the generation word and calls
// FiberScheduler::yield_waiting() between probes. A PE fiber must never
// block its worker thread (the N:M scheduler invariant,
// src/machine/fiber.hpp), so it parks cooperatively and, re-run by the
// scheduler, can never miss a wakeup. Off a fiber (the unit tests that drive
// a barrier from plain host threads) the same call yields the host thread.
//
// Failure semantics (docs/RESILIENCE.md):
//
//  * The barrier can be *poisoned* when a PE dies with an exception: all
//    current and future waiters throw instead of deadlocking, letting
//    Machine::run unwind the whole SPMD region. A poison carries its cause —
//    when a PE death triggered it, waiters throw PeFailedError naming the
//    dead rank (the team fail-fast protocol); a generic poison throws plain
//    xbgas::Error. A generation that fully rendezvoused before the poison
//    landed still completes normally — survivor unwind points stay
//    deterministic.
//
//  * An optional *watchdog* (FaultConfig::barrier_timeout_ms, host time)
//    bounds how long a participant may wait. When it fires, the waiter
//    poisons the barrier itself and every participant throws
//    BarrierTimeoutError listing which ranks arrived and which never did —
//    a hang becomes a diagnosis.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "fault/errors.hpp"

namespace xbgas {

/// Why a barrier was poisoned; decides which exception waiters throw.
struct BarrierPoison {
  std::string reason;     ///< full diagnostic message (empty = generic)
  int failed_rank = -1;   ///< >= 0: a PE died -> waiters throw PeFailedError
  bool timeout = false;   ///< watchdog fired -> waiters throw BarrierTimeoutError
  std::vector<int> arrived;  ///< world ranks that reached the rendezvous
  std::vector<int> missing;  ///< world ranks that never arrived (if known)
};

class ClockSyncBarrier {
 public:
  using Reconcile = std::function<std::uint64_t(std::uint64_t max_cycles, int n)>;
  using AllArrived = std::function<void()>;

  /// `reconcile` may be empty, in which case the barrier result is simply
  /// the max of the participants' clocks. `watchdog_ms` (host milliseconds,
  /// 0 = off) bounds each wait; `member_ranks`, when provided, is the world
  /// ranks of the expected participants, used only to name missing ranks in
  /// watchdog diagnostics.
  explicit ClockSyncBarrier(int n_participants, Reconcile reconcile = {},
                            std::uint64_t watchdog_ms = 0,
                            std::vector<int> member_ranks = {});

  /// Install a hook the last arriver runs while every other participant is
  /// still parked in the rendezvous (fiber waiters only poll the release
  /// word; they touch no shared state). XbrSan uses this to join the
  /// members' vector clocks at the only moment the join is both race-free
  /// and exact (every member quiescent). Keep it cheap: it executes on the
  /// release critical path of every barrier crossing.
  void set_all_arrived_hook(AllArrived hook) { all_arrived_ = std::move(hook); }

  /// Block until all participants arrive; returns the reconciled clock.
  /// Throws (per BarrierPoison) if the barrier is or becomes poisoned, and
  /// BarrierTimeoutError if this waiter's watchdog fires first.
  std::uint64_t arrive_and_wait(std::uint64_t my_cycles);

  /// Poison with a generic error: every current waiter throws at its next
  /// probe, every later arrival at once. Safe to call from any thread.
  void poison();

  /// Poison with a typed cause. The first poison wins; later calls are
  /// no-ops.
  void poison(BarrierPoison info);

  bool poisoned() const;

  /// Copy of the poison diagnostics (meaningful only when poisoned()).
  BarrierPoison poison_info() const;

  /// Throw what a waiter on a barrier poisoned with `p` throws:
  /// PeFailedError for a death, BarrierTimeoutError for a watchdog, plain
  /// Error otherwise.
  [[noreturn]] static void throw_for(const BarrierPoison& p);

  /// True iff the member roster is known and `rank` is not on it — i.e. this
  /// barrier can provably never be blocked by `rank`. A barrier constructed
  /// without `member_ranks` conservatively reports false for every rank.
  bool excludes_rank(int rank) const;

  int participants() const { return n_; }

 private:
  /// One combining-tree node, cache-line isolated so sibling arrivals don't
  /// false-share.
  struct alignas(64) TreeNode {
    std::atomic<int> count{0};
    std::atomic<std::uint64_t> max_cycles{0};
  };

  /// Number of direct children of node `idx` at `level` (tickets feed the
  /// leaves, level k-1 nodes feed level k).
  int fanin(std::size_t level, std::size_t idx) const;

  /// Climb the combining tree with this arrival's clock. Returns true when
  /// the caller completed the root (the release duty is theirs) and leaves
  /// the tree-wide max in `carry`.
  bool combine(int ticket, std::uint64_t& carry);

  /// Winner-only: run hook + reconcile, reset the tree, publish the next
  /// generation. Returns the reconciled clock.
  std::uint64_t release(std::uint64_t tree_max);

  /// Waiter: probe and yield_waiting() until the generation advances past
  /// `my_gen`, poison lands, or the watchdog expires.
  std::uint64_t await_release(std::uint64_t my_gen);

  [[noreturn]] void throw_poisoned();
  [[noreturn]] void watchdog_expired();

  const int n_;
  Reconcile reconcile_;
  AllArrived all_arrived_;
  const std::uint64_t watchdog_ms_;
  const std::vector<int> member_ranks_;

  // -- Lock-free arrival state --
  // level_offset_/level_width_ are declared (hence constructed) before
  // nodes_: the constructor's tree-shape computation fills them while
  // initializing nodes_.
  std::vector<std::size_t> level_offset_;  ///< first node of each level
  std::vector<int> level_width_;           ///< nodes per level
  std::vector<TreeNode> nodes_;            ///< level-major combining tree
  std::atomic<int> tickets_{0};            ///< arrival order within generation
  std::vector<std::atomic<int>> arrived_slots_;  ///< rank per ticket (diagnostics)
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> poisoned_flag_{false};
  /// Reconciled clock of the latest closed generation. Plain: written before
  /// the generation_ release-store, read after its acquire-load.
  std::uint64_t result_ = 0;

  // -- Slow paths (poison, watchdog diagnostics) --
  mutable std::mutex mutex_;
  BarrierPoison poison_;
};

}  // namespace xbgas
