#include "machine/machine.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "common/log.hpp"
#include "net/topology.hpp"

namespace xbgas {

namespace {
int log_rank_provider() {
  PeContext* pe = current_pe_context();
  return pe != nullptr ? pe->rank() : -1;
}
}  // namespace

PeContext* current_pe_context() {
  // The PE context rides on the fiber (user_data), never on the worker
  // thread — fibers migrate between workers.
  return static_cast<PeContext*>(FiberScheduler::current_user_data());
}

PeContext::PeContext(Machine& machine, int rank, const MachineConfig& config)
    : machine_(machine),
      rank_(rank),
      arena_(config.layout),
      cache_(config.cache),
      shared_alloc_(config.layout.shared_bytes),
      private_alloc_(config.layout.private_bytes),
      port_(rank, arena_, olb_, cache_, machine.network(),
            config.layout.private_bytes) {}

int PeContext::n_pes() const { return machine_.n_pes(); }

void PeContext::bind_trace(EventRing* ring) {
  trace_.bind(ring, &clock_);
  olb_.set_trace(&trace_);
  cache_.set_trace(&trace_);
}

std::byte* PeContext::resolve_symmetric(int pe, void* local) {
  return const_cast<std::byte*>(
      static_cast<const PeContext*>(this)->resolve_symmetric(pe, local));
}

const std::byte* PeContext::resolve_symmetric(int pe, const void* local) const {
  XBGAS_CHECK(pe >= 0 && pe < machine_.n_pes(), "PE rank out of range");
  const std::size_t offset = arena_.shared_offset_of(local);
  if (pe == rank_) return static_cast<const std::byte*>(local);
  return machine_.pe(pe).arena().shared_at(offset);
}

Machine::Machine(const MachineConfig& config)
    : config_(config),
      network_(make_topology(config.topology_name, config.n_pes), config.net),
      tracer_(config.n_pes, config.trace),
      fault_injector_(config.fault, config.n_pes),
      sanitizer_(config.san, config.n_pes),
      recovery_(config.n_pes),
      checkpoint_store_(config.n_pes) {
  static std::atomic<std::uint64_t> next_instance_id{1};
  instance_id_ = next_instance_id.fetch_add(1, std::memory_order_relaxed);
  XBGAS_CHECK(config.n_pes >= 1, "machine needs >= 1 PE");
  pes_.reserve(static_cast<std::size_t>(config.n_pes));
  for (int r = 0; r < config.n_pes; ++r) {
    pes_.push_back(std::make_unique<PeContext>(*this, r, config_));
    pes_.back()->bind_trace(tracer_.ring(r));
  }
  // Populate every PE's OLB with every peer's shared segment (object ID =
  // rank + 1; ID 0 stays the architectural local shortcut).
  for (auto& pe : pes_) {
    for (int r = 0; r < config.n_pes; ++r) {
      auto& peer = *pes_[static_cast<std::size_t>(r)];
      pe->olb().insert(OlbEntry{
          .object_id = object_id_for_pe(r),
          .pe = r,
          .segment_base = peer.arena().shared_base(),
          .segment_size = peer.arena().shared_size(),
      });
    }
  }
  validation_slots_.assign(static_cast<std::size_t>(config.n_pes), 0);
  std::vector<int> world_ranks(static_cast<std::size_t>(config.n_pes));
  for (int r = 0; r < config.n_pes; ++r) {
    world_ranks[static_cast<std::size_t>(r)] = r;
  }
  world_barrier_ = std::make_unique<ClockSyncBarrier>(
      config.n_pes,
      [this](std::uint64_t max_cycles, int n) {
        return network_.reconcile_phase(max_cycles, n);
      },
      config.fault.barrier_timeout_ms, world_ranks);
  if (sanitizer_.conflicts_enabled()) {
    world_barrier_->set_all_arrived_hook(
        [this, world_ranks] { sanitizer_.on_barrier_all_arrived(world_ranks); });
  }
  register_barrier(world_barrier_.get());
  // Scripted link/partition faults: the transport consults the LinkFaults
  // plan per attempt; down/heal transitions feed the recovery roster's
  // reachability graph so xbr_agree's quorum rule sees exactly the links
  // the transport enforces.
  network_.configure_link_faults(config.fault, config.n_pes);
  if (!network_.link_faults().empty()) {
    network_.link_faults().set_down_callback(
        [this](int a, int b) { recovery_.note_link_down(a, b); });
    network_.link_faults().set_heal_callback(
        [this](int a, int b) { recovery_.note_link_up(a, b); });
  }
  set_log_rank_provider(&log_rank_provider);
}

Machine::~Machine() = default;

PeContext& Machine::pe(int rank) {
  XBGAS_CHECK(rank >= 0 && rank < n_pes(), "PE rank out of range");
  return *pes_[static_cast<std::size_t>(rank)];
}

const PeContext& Machine::pe(int rank) const {
  XBGAS_CHECK(rank >= 0 && rank < n_pes(), "PE rank out of range");
  return *pes_[static_cast<std::size_t>(rank)];
}

void Machine::run(const std::function<void(PeContext&)>& body) {
  XBGAS_CHECK(config_.sched.mode == "fibers",
              "MachineConfig::sched.mode must be \"fibers\"");

  // One slot per PE, written only by that PE's fiber and read after
  // all of them stop — no exception is ever dropped, and the report below
  // lists all of them.
  struct Slot {
    bool failed = false;
    PeFailure failure;
  };
  std::vector<Slot> slots(pes_.size());

  // A PE's xbrtime state used to be thread-local and therefore fresh for
  // every region; preserve that — notably, a PE that died mid-region must
  // not look "initialized" to the next region's body.
  for (auto& pe_ptr : pes_) pe_ptr->xbrtime_state() = XbrtimeRuntimeState{};

  // The PE body. Catches *everything*: no exception may cross back into the
  // scheduler.
  auto pe_body = [&](std::size_t i) {
    PeContext* ctx = pes_[i].get();
    const int rank = ctx->rank();
    try {
      body(*ctx);
    } catch (const PeFailedError& e) {
      // Secondary: this PE unwound from a barrier poisoned by another
      // PE's death. The barriers are already poisoned with the primary's
      // cause — don't re-poison with the echo.
      slots[i] = Slot{true, PeFailure{rank, e.what(), /*secondary=*/true}};
    } catch (const std::exception& e) {
      // Primary: mark the roster *before* poisoning so survivors running
      // the recovery protocol observe the death as soon as they unwind.
      recovery_.mark_failed(rank);
      sanitizer_.on_pe_failed(rank);
      slots[i] = Slot{true, PeFailure{rank, e.what(), /*secondary=*/false}};
      poison_all_barriers(rank, e.what());
    } catch (...) {
      recovery_.mark_failed(rank);
      sanitizer_.on_pe_failed(rank);
      slots[i] = Slot{true, PeFailure{rank, "unknown exception",
                                      /*secondary=*/false}};
      poison_all_barriers(rank, "unknown exception");
    }
  };

  FiberScheduler sched(config_.sched, config_.n_pes);
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    sched.spawn([&pe_body, i] { pe_body(i); }, pes_[i].get());
  }
  sched.run();
  {
    const SchedStats& s = sched.stats();
    const std::lock_guard<std::mutex> lock(health_mutex_);
    sched_stats_.regions += s.regions;
    sched_stats_.fibers += s.fibers;
    sched_stats_.workers = std::max(sched_stats_.workers, s.workers);
    sched_stats_.switches += s.switches;
    sched_stats_.yields_waiting += s.yields_waiting;
    sched_stats_.injected_yields += s.injected_yields;
    sched_stats_.naps += s.naps;
  }

  std::vector<PeFailure> region_failures;
  std::size_t n_success = 0;
  for (const Slot& s : slots) {
    if (s.failed) {
      region_failures.push_back(s.failure);
    } else {
      ++n_success;
    }
  }
  if (region_failures.empty()) return;

  // Deterministic report order: primaries first, then by rank. Slot order
  // already yields rank order; the explicit sort makes the invariant hold
  // no matter how the collection above evolves (it is golden-tested).
  std::stable_sort(region_failures.begin(), region_failures.end(),
                   [](const PeFailure& a, const PeFailure& b) {
                     if (a.secondary != b.secondary) return !a.secondary;
                     return a.rank < b.rank;
                   });
  std::size_t n_primary = 0;
  for (const PeFailure& f : region_failures) n_primary += f.secondary ? 0 : 1;

  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    for (const PeFailure& f : region_failures) failures_.push_back(f);
  }

  // Recovered region: every failure is a primary death that the survivors
  // acknowledged via agreement, and at least one PE finished its body. The
  // job shrank and kept going — that is success, not an exception.
  bool recovered = n_success > 0;
  for (const PeFailure& f : region_failures) {
    if (f.secondary || !recovery_.acknowledged(f.rank)) {
      recovered = false;
      break;
    }
  }
  if (recovered) return;

  std::string msg = "SPMD region failed on " +
                    std::to_string(region_failures.size()) + " of " +
                    std::to_string(pes_.size()) + " PEs (" +
                    std::to_string(n_primary) + " primary):";
  for (const PeFailure& f : region_failures) {
    msg += "\n  rank " + std::to_string(f.rank) +
           (f.secondary ? " (secondary): " : ": ") + f.what;
  }
  throw SpmdRegionError(msg, std::move(region_failures));
}

SchedStats Machine::sched_stats() const {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  return sched_stats_;
}

bool Machine::alive(int rank) const {
  XBGAS_CHECK(rank >= 0 && rank < n_pes(), "PE rank out of range");
  return !recovery_.failed(rank);
}

int Machine::n_alive() const { return n_pes() - recovery_.n_failed(); }

std::vector<int> Machine::failed_ranks() const {
  return recovery_.failed_ranks();
}

std::vector<PeFailure> Machine::failures() const {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  return failures_;
}

std::string Machine::health() const {
  std::string out =
      "alive " + std::to_string(n_alive()) + "/" + std::to_string(n_pes());
  const std::vector<int> failed = recovery_.failed_ranks();
  out += "\nfailed ranks: [";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(failed[i]);
  }
  out += "]";
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    for (const PeFailure& f : failures_) {
      out += "\n  rank " + std::to_string(f.rank) +
             (f.secondary ? " (secondary): " : " (primary): ") + f.what;
    }
  }
  const RecoveryCounters& rc = recovery_.counters();
  out += "\nrecovery: epoch " + std::to_string(recovery_.epoch()) +
         ", agreements " + std::to_string(rc.agreements.load()) +
         ", shrinks " + std::to_string(rc.shrinks.load()) + ", checkpoints " +
         std::to_string(rc.checkpoints.load()) + ", restores " +
         std::to_string(rc.restores.load());
  return out;
}

std::uint64_t Machine::max_cycles() const {
  std::uint64_t best = 0;
  for (const auto& pe_ptr : pes_) {
    best = std::max(best, pe_ptr->clock().cycles());
  }
  return best;
}

void Machine::reset_time_and_stats() {
  for (auto& pe_ptr : pes_) {
    pe_ptr->clock().reset();
    pe_ptr->cache().reset_stats();
    pe_ptr->cache().flush();
    pe_ptr->olb().reset_stats();
  }
  network_.reset_totals();
  network_.reset_phase();
  tracer_.clear();
  // Fault counters reset with the other statistics; the injection RNG
  // streams deliberately keep their position (see FaultInjector).
  fault_injector_.reset_counters();
}

std::uint64_t& Machine::validation_slot(int rank) {
  XBGAS_CHECK(rank >= 0 && rank < n_pes(), "PE rank out of range");
  return validation_slots_[static_cast<std::size_t>(rank)];
}

void Machine::register_barrier(ClockSyncBarrier* barrier) {
  const std::lock_guard<std::mutex> lock(barriers_mutex_);
  barriers_.push_back(barrier);
  // A barrier created after a PE already died can never be completed by the
  // dead PE: poison it at birth or a surviving registrant waits forever
  // (e.g. a team member re-creating the shared rendezvous barrier after the
  // first copy was destroyed on the failure path). Once survivors have
  // acknowledged a death via agreement, barriers of the new recovery epoch
  // must be born clean — only *unacknowledged* failures poison at birth.
  for (const auto& [rank, poison] : primary_poisons_) {
    if (!recovery_.acknowledged(rank)) {
      barrier->poison(poison);
      break;
    }
  }
}

void Machine::unregister_barrier(ClockSyncBarrier* barrier) {
  const std::lock_guard<std::mutex> lock(barriers_mutex_);
  std::erase(barriers_, barrier);
}

std::shared_ptr<ClockSyncBarrier> Machine::team_barrier(
    const std::vector<int>& members, std::uint64_t epoch) {
  const TeamKey key{epoch, members};
  const std::lock_guard<std::mutex> lock(teams_mutex_);
  if (auto it = team_tombstones_.find(key); it != team_tombstones_.end()) {
    ClockSyncBarrier::throw_for(it->second);
  }
  if (auto it = teams_.find(key); it != teams_.end()) {
    if (auto existing = it->second.lock()) return existing;
  }
  const NetCostParams params = network_.params();
  const int size = static_cast<int>(members.size());
  auto* raw = new ClockSyncBarrier(
      size,
      [params, size](std::uint64_t max_cycles, int) {
        return max_cycles + params.barrier_cycles(size);
      },
      config_.fault.barrier_timeout_ms, members);
  if (sanitizer_.conflicts_enabled()) {
    // XbrSan epoch join over exactly the member set: a team barrier orders
    // its members' accesses (vector-clock join), not the whole world's.
    raw->set_all_arrived_hook(
        [this, members] { sanitizer_.on_barrier_all_arrived(members); });
  }
  std::shared_ptr<ClockSyncBarrier> barrier(
      raw, [this, key](ClockSyncBarrier* b) {
        unregister_barrier(b);
        {
          const std::lock_guard<std::mutex> inner(teams_mutex_);
          // Between the last release and this lock a member may already
          // have founded the next barrier under the same key; evict the
          // entry only while it still points at a dead barrier.
          if (auto it = teams_.find(key);
              it != teams_.end() && it->second.expired()) {
            teams_.erase(it);
          }
          // Survivor keys are never reused (the epoch is an agreement
          // sequence number), so a poisoned one stays poisoned for the
          // wave's stragglers. Active-set keys are reused by every call;
          // birth-poisoning covers their stragglers.
          if (key.first > 0 && b->poisoned()) {
            team_tombstones_[key] = b->poison_info();
          }
        }
        delete b;
      });
  register_barrier(barrier.get());
  teams_[key] = barrier;
  return barrier;
}

void Machine::poison_barriers_for_unreachable(int suspect,
                                              const std::string& cause) {
  BarrierPoison info;
  info.failed_rank = suspect;
  info.reason = "PE " + std::to_string(suspect) +
                " is unreachable (" + cause +
                "); surviving PEs enter recovery";
  const std::lock_guard<std::mutex> lock(barriers_mutex_);
  // One-shot: only barriers that exist right now are poisoned. The suspect
  // is alive, so no primary_poisons_ entry is recorded — barriers created
  // after the quorum decision (the shrunken team's) must be born clean.
  for (auto* b : barriers_) b->poison(info);
}

void Machine::poison_all_barriers(int failed_rank, const std::string& cause) {
  BarrierPoison info;
  info.failed_rank = failed_rank;
  info.reason = "PE " + std::to_string(failed_rank) + " failed (" + cause +
                "); surviving PEs fail fast";
  const std::lock_guard<std::mutex> lock(barriers_mutex_);
  primary_poisons_[failed_rank] = info;
  // Before the death is acknowledged, fail fast: poison everything so no
  // waiter can deadlock on a rendezvous the dead PE will never join. Once
  // survivors have acknowledged it via agreement, barriers whose rosters
  // exclude the dead rank belong to the *new* recovery epoch and can never
  // be blocked by it — poisoning them would inject a spurious failure into
  // a healthy shrunken team, and make the number of agreement waves depend
  // on how late this (host-scheduled) call lands relative to the fold.
  const bool acknowledged = recovery_.acknowledged(failed_rank);
  for (auto* b : barriers_) {
    if (acknowledged && b->excludes_rank(failed_rank)) continue;
    b->poison(info);
  }
}

}  // namespace xbgas
