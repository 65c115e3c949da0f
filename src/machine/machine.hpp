#pragma once

// Machine — the simulated multi-PE system (the repo's stand-in for the
// paper's 12-core Spike environment, §5.1).
//
// A Machine owns N processing elements. Each PE has its own memory arena
// (Figure 2 layout), OLB pre-populated with every peer's shared segment,
// cache hierarchy, simulated clock, and deterministic allocators. run()
// executes an SPMD body with one cooperative *fiber* per PE multiplexed
// over a bounded worker pool (FiberScheduler, docs/SCALING.md) — so a
// 1024-PE machine runs on a handful of host cores. The machine owns every
// rendezvous: the world barrier and, through team_barrier(), the shared
// barrier of each team. A failing PE poisons every registered barrier (so
// no waiter deadlocks) and run() throws a composite SpmdRegionError listing
// every failed rank and cause — unless
// the survivors *recovered* (acknowledged every death via xbr_team_shrink's
// agreement), in which case run() returns normally. The machine also owns
// the FaultInjector, the RecoveryState (failure roster + agreement board),
// the CheckpointStore (src/fault), and a post-mortem health view
// (alive / failed_ranks / failures / health).

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hpp"
#include "fault/checkpoint_store.hpp"
#include "fault/config.hpp"
#include "fault/errors.hpp"
#include "fault/injector.hpp"
#include "fault/roster.hpp"
#include "machine/barrier.hpp"
#include "machine/fiber.hpp"
#include "machine/port.hpp"
#include "memory/arena.hpp"
#include "memory/freelist_allocator.hpp"
#include "net/fabric.hpp"
#include "net/sim_clock.hpp"
#include "olb/olb.hpp"
#include "san/config.hpp"
#include "san/sanitizer.hpp"
#include "trace/channel.hpp"
#include "trace/tracer.hpp"

namespace xbgas {

class Machine;

struct MachineConfig {
  int n_pes = 4;
  MemoryLayout layout{};
  std::string topology_name = "flat";
  NetCostParams net{};
  HierarchyConfig cache{};
  TraceConfig trace{};
  FaultConfig fault{};
  SanConfig san{};
  /// Collective algorithm selection: "auto" (cost model), "tree", "ring",
  /// or "hier". Parsed by the collectives policy layer
  /// (src/collectives/policy.hpp); kept as a string here so the machine
  /// substrate stays independent of the collectives layer.
  std::string coll_algo = "auto";
  /// Path to a persisted auto-tuner table (empty: none). Entries override
  /// the analytic cost model per (kind, n_pes, bytes); misses fall back.
  std::string coll_tune_table;
  /// Forced k-nomial radix for tree/hierarchical schedules (0: default 2,
  /// or the tuned radix when a tune-table entry matches).
  int coll_radix = 0;
  /// PE execution model: N:M fiber scheduling (docs/SCALING.md).
  SchedConfig sched{};
};

/// One explicit-handle nonblocking transfer in flight (src/xbrtime/nbi.hpp):
/// the request id handed to the caller and the simulated completion horizon.
struct NbInflight {
  std::uint64_t id = 0;
  std::uint64_t done_at = 0;
};

/// One small put buffered by the write combiner awaiting a flush
/// (src/xbrtime/wc.hpp): where it lands in the target's symmetric segment
/// and where its payload sits in the per-target staging buffer.
struct WcEntry {
  std::size_t offset = 0;  ///< shared-segment byte offset of the dest
  std::size_t pos = 0;     ///< byte position in WcTargetBuffer::payload
  std::size_t bytes = 0;
};

struct WcTargetBuffer {
  std::vector<WcEntry> entries;
  std::vector<std::byte> payload;
};

/// Per-PE write-combining state. Disabled by default; xbr_wc_enable sizes
/// `targets` to n_pes and flushes are triggered at capacity, fences,
/// xbr_wait/xbr_quiet, and barriers.
struct WriteCombinerState {
  bool enabled = false;
  std::size_t threshold_bytes = 0;   ///< puts at most this large coalesce
  std::size_t capacity_entries = 0;  ///< per-target flush trigger
  std::vector<WcTargetBuffer> targets;
};

/// Per-PE xbrtime runtime state (src/xbrtime/runtime.cpp). This used to be
/// thread-local — correct when each PE owned a thread, wrong once fibers
/// migrate between workers — so it lives in the PeContext now. Machine::run
/// resets it at region start, preserving the old fresh-thread-per-region
/// semantics.
struct XbrtimeRuntimeState {
  bool initialized = false;
  std::size_t live_allocations = 0;
  /// Collective staging stack carved from the symmetric heap.
  std::byte* staging_base = nullptr;
  std::size_t staging_capacity = 0;
  std::size_t staging_top = 0;
  std::vector<std::size_t> staging_lifo;  ///< live block offsets, stack order
  /// Explicit-handle nonblocking requests (xbr_put_nbi / xbr_get_nbi) still
  /// in flight; ids are never reused within a region. Entries whose horizon
  /// has been absorbed by xbr_wait_req/xbr_test are removed; xbr_quiet,
  /// xbr_wait and barriers clear the whole table.
  std::uint64_t nbi_next_id = 1;
  std::vector<NbInflight> nbi_inflight;
  /// Write-combining buffers (xbr_put_wc; src/xbrtime/wc.hpp).
  WriteCombinerState wc;
};

/// Per-PE state handed to the SPMD body. Owned by the Machine; never
/// outlives it.
class PeContext {
 public:
  PeContext(Machine& machine, int rank, const MachineConfig& config);

  PeContext(const PeContext&) = delete;
  PeContext& operator=(const PeContext&) = delete;

  int rank() const { return rank_; }
  int n_pes() const;

  Machine& machine() { return machine_; }
  MemoryArena& arena() { return arena_; }
  const MemoryArena& arena() const { return arena_; }
  ObjectLookasideBuffer& olb() { return olb_; }
  const ObjectLookasideBuffer& olb() const { return olb_; }
  CacheHierarchy& cache() { return cache_; }
  const CacheHierarchy& cache() const { return cache_; }
  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  FreeListAllocator& shared_allocator() { return shared_alloc_; }
  FreeListAllocator& private_allocator() { return private_alloc_; }
  MachinePort& port() { return port_; }
  TraceChannel& trace() { return trace_; }

  /// Attach this PE to a trace ring (null disables) and propagate the
  /// channel to the OLB and cache models. Called by the Machine constructor.
  void bind_trace(EventRing* ring);

  /// Resolve a *symmetric* local pointer to the equivalent location in a
  /// peer PE's shared segment. Throws if `local` is not in this PE's shared
  /// segment or `pe` is out of range. pe == rank() returns `local` itself
  /// (the §3.2 object-ID-0 shortcut).
  std::byte* resolve_symmetric(int pe, void* local);
  const std::byte* resolve_symmetric(int pe, const void* local) const;

  /// Completion horizon for non-blocking RMA: the simulated time by which
  /// all outstanding non-blocking transfers issued by this PE are complete.
  /// xbr_wait / xbrtime_barrier advance the clock to this value.
  std::uint64_t pending_completion() const { return pending_completion_; }
  void note_pending(std::uint64_t done_at) {
    if (done_at > pending_completion_) pending_completion_ = done_at;
  }
  void clear_pending() { pending_completion_ = 0; }

  /// xbrtime runtime state for this PE; only the xbrtime layer mutates it.
  XbrtimeRuntimeState& xbrtime_state() { return xbrtime_state_; }

 private:
  std::uint64_t pending_completion_ = 0;
  XbrtimeRuntimeState xbrtime_state_;
  Machine& machine_;
  int rank_;
  MemoryArena arena_;
  ObjectLookasideBuffer olb_;
  CacheHierarchy cache_;
  SimClock clock_;
  FreeListAllocator shared_alloc_;
  FreeListAllocator private_alloc_;
  MachinePort port_;
  TraceChannel trace_;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int n_pes() const { return config_.n_pes; }
  const MachineConfig& config() const { return config_; }

  /// Process-unique, never-reused id for this Machine instance. Per-thread
  /// caches (the collectives policy cache) key on this instead of the
  /// address, which the allocator may reuse.
  std::uint64_t instance_id() const { return instance_id_; }

  NetworkModel& network() { return network_; }
  const NetworkModel& network() const { return network_; }

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  FaultInjector& fault_injector() { return fault_injector_; }
  const FaultInjector& fault_injector() const { return fault_injector_; }

  Sanitizer& sanitizer() { return sanitizer_; }
  const Sanitizer& sanitizer() const { return sanitizer_; }

  ClockSyncBarrier& world_barrier() { return *world_barrier_; }

  /// The shared rendezvous barrier of one team: every member that asks for
  /// the same ascending `members` set in the same `epoch` gets the same
  /// barrier. Active-set teams use epoch 0; survivor teams use the epoch of
  /// the agreement that formed them, so a later wave over an identical
  /// roster gets a fresh barrier. The barrier costs max + the modeled
  /// log2(size) exchange and does not reconcile the global fabric phase
  /// (that stays tied to world barriers, so disjoint teams don't consume
  /// each other's traffic). It is registered for poisoning while any member
  /// holds it. A poisoned survivor rendezvous leaves a tombstone: a
  /// straggler of that wave throws its poison instead of founding a barrier
  /// nobody else will reach.
  std::shared_ptr<ClockSyncBarrier> team_barrier(
      const std::vector<int>& members, std::uint64_t epoch);

  PeContext& pe(int rank);
  const PeContext& pe(int rank) const;

  /// Survivor-recovery state: failure roster, acknowledgment epochs, and
  /// the xbr_agree board (docs/RESILIENCE.md).
  RecoveryState& recovery() { return recovery_; }
  const RecoveryState& recovery() const { return recovery_; }

  /// Snapshot store behind xbr_checkpoint / xbr_restore.
  CheckpointStore& checkpoint_store() { return checkpoint_store_; }
  const CheckpointStore& checkpoint_store() const { return checkpoint_store_; }

  /// Execute `body` as an SPMD region: one fiber per PE over the bounded
  /// worker pool. A failing PE is marked failed in the recovery roster
  /// immediately and poisons every registered barrier with its rank and
  /// cause, so surviving waiters unwind with PeFailedError instead of
  /// deadlocking. Every PE's failure is collected and recorded (primaries
  /// first, then by rank — the order is deterministic and golden-testable).
  /// If at least one PE completed normally and every failure is a primary
  /// that survivors acknowledged via agreement (xbr_team_shrink), the
  /// region *recovered*: run returns normally. Otherwise run throws
  /// SpmdRegionError listing each failed rank and cause — no exception is
  /// silently dropped. During the region, current_pe_context() returns the
  /// calling fiber's PE context.
  void run(const std::function<void(PeContext&)>& body);

  /// Scheduler statistics accumulated across every run() on this machine
  /// (sched.* counters, docs/OBSERVABILITY.md).
  SchedStats sched_stats() const;

  // -- Post-mortem health view (docs/RESILIENCE.md) --

  /// True while `rank` has never *primarily* failed in any SPMD region on
  /// this machine. Survivors that unwound with PeFailedError because some
  /// other PE died (secondary failures) stay alive.
  bool alive(int rank) const;

  /// Number of PEs that are still alive.
  int n_alive() const;

  /// World ranks that have primarily failed, ascending.
  std::vector<int> failed_ranks() const;

  /// Every recorded PE failure (rank, cause, primary/secondary), primaries
  /// first then by rank within each region, accumulated across regions.
  std::vector<PeFailure> failures() const;

  /// Deterministic multi-line health summary: alive count, failed ranks,
  /// each recorded failure, and the recovery epoch — the post-mortem view
  /// docs/RESILIENCE.md documents and the golden tests pin down.
  std::string health() const;

  /// Max simulated clock across PEs (the "makespan" of the last region).
  std::uint64_t max_cycles() const;

  /// Reset all PE clocks and cache/OLB/net statistics (between benchmark
  /// repetitions).
  void reset_time_and_stats();

  /// One plain 64-bit slot per PE, used by collective runtime operations
  /// (e.g. symmetric-heap symmetry verification) to exchange small values.
  /// Synchronization is the caller's job (writes and reads must be separated
  /// by barriers).
  std::uint64_t& validation_slot(int rank);

  /// Any barrier registered here is poisoned when a PE fails, so waiters on
  /// team/subset barriers unwind instead of deadlocking. The world barrier
  /// is registered automatically.
  void register_barrier(ClockSyncBarrier* barrier);
  void unregister_barrier(ClockSyncBarrier* barrier);

  /// Unreachable-peer escalation (PeUnreachableError): poison the barriers
  /// registered *right now* with `suspect` as the failed rank, so every
  /// blocked PE unwinds with PeFailedError naming the suspect and enters
  /// the same agree -> shrink recovery a death triggers. Unlike a death,
  /// the suspect is alive: it is NOT marked failed and no birth-poison is
  /// recorded — barriers created after the quorum decision are born clean,
  /// and the quorum rule (not this call) decides who is evicted.
  void poison_barriers_for_unreachable(int suspect, const std::string& cause);

 private:
  /// Poison every registered barrier with the failing rank and cause; while
  /// the failure is unacknowledged its poison info also applies to
  /// late-registered barriers (see register_barrier).
  void poison_all_barriers(int failed_rank, const std::string& cause);

  MachineConfig config_;
  NetworkModel network_;
  Tracer tracer_;
  FaultInjector fault_injector_;
  Sanitizer sanitizer_;
  RecoveryState recovery_;
  CheckpointStore checkpoint_store_;
  std::uint64_t instance_id_;
  std::vector<std::unique_ptr<PeContext>> pes_;
  std::unique_ptr<ClockSyncBarrier> world_barrier_;
  std::vector<std::uint64_t> validation_slots_;

  std::mutex barriers_mutex_;
  std::vector<ClockSyncBarrier*> barriers_;
  /// Poison info per primarily-failed rank; register_barrier applies the
  /// smallest *unacknowledged* one to barriers born after a death, and
  /// stops once agreement acknowledges the failure (shrunken-team barriers
  /// of a later recovery epoch are born clean).
  std::map<int, BarrierPoison> primary_poisons_;

  /// team_barrier's registry, keyed by (epoch, members). Entries are weak:
  /// the last member to drop a team evicts its entry.
  using TeamKey = std::pair<std::uint64_t, std::vector<int>>;
  std::mutex teams_mutex_;
  std::map<TeamKey, std::weak_ptr<ClockSyncBarrier>> teams_;
  std::map<TeamKey, BarrierPoison> team_tombstones_;  ///< epoch > 0 only

  mutable std::mutex health_mutex_;
  std::vector<PeFailure> failures_;   ///< accumulated failure records
  SchedStats sched_stats_;            ///< accumulated, under health_mutex_
};

/// The PE context bound to the calling fiber inside Machine::run, or
/// nullptr outside any SPMD region.
PeContext* current_pe_context();

}  // namespace xbgas
