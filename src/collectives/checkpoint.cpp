#include "collectives/checkpoint.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "fault/roster.hpp"
#include "machine/machine.hpp"
#include "net/fabric.hpp"
#include "trace/event.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {

namespace {

/// Modeled cost of moving `bytes` of snapshot payload in `n_shards` messages
/// to/from the replicated store: serialization on the PE's link plus one
/// message overhead per shard.
std::uint64_t replication_cycles(const NetCostParams& params,
                                 std::uint64_t bytes, std::size_t n_shards) {
  const double bpc = params.link_bytes_per_cycle > 0.0
                         ? params.link_bytes_per_cycle
                         : 1.0;
  const auto serialize =
      static_cast<std::uint64_t>(static_cast<double>(bytes) / bpc);
  const std::uint64_t per_message =
      params.injection_cycles + params.remote_mem_cycles;
  return serialize + per_message * static_cast<std::uint64_t>(n_shards);
}

}  // namespace

std::uint64_t xbr_checkpoint(Communicator& comm) {
  PeContext& ctx = xbrtime_ctx();
  Machine& machine = ctx.machine();

  comm.barrier();  // quiesce: no member's heap may change under the snapshot

  const std::size_t staging = xbrtime_stage_offset();
  std::vector<HeapShard> shards;
  std::uint64_t bytes = 0;
  for (const auto& [offset, size] : ctx.shared_allocator().live_blocks()) {
    if (offset == staging) continue;  // runtime scratch, reset on recovery
    HeapShard shard;
    shard.offset = offset;
    shard.data.resize(size);
    std::memcpy(shard.data.data(), ctx.arena().shared_at(offset), size);
    bytes += size;
    shards.push_back(std::move(shard));
  }

  ctx.clock().advance(
      replication_cycles(machine.network().params(), bytes, shards.size()));

  const std::uint64_t version =
      machine.checkpoint_store().commit(ctx.rank(), std::move(shards));

  RecoveryCounters& counters = machine.recovery().counters();
  if (comm.rank() == 0) counters.checkpoints.fetch_add(1);
  counters.checkpointed_bytes.fetch_add(bytes);
  ctx.trace().record(EventKind::kRecovery, -1,
                     static_cast<std::uint64_t>(RecoveryOp::kCheckpoint),
                     bytes);

  comm.barrier();  // no member proceeds until every snapshot is committed
  return version;
}

std::uint64_t xbr_checkpoint() { return xbr_checkpoint(world_comm()); }

RestoreReport xbr_restore(Communicator& comm) {
  PeContext& ctx = xbrtime_ctx();
  Machine& machine = ctx.machine();
  CheckpointStore& store = machine.checkpoint_store();

  comm.barrier();

  RestoreReport report;
  const std::size_t staging = xbrtime_stage_offset();

  // (1) Own snapshot back into the heap. Blocks whose allocation no longer
  // exists (or changed size) are skipped, not an error: the application may
  // legitimately have freed them since the checkpoint.
  if (store.has_snapshot(ctx.rank())) {
    report.version = store.version(ctx.rank());
    for (const HeapShard& shard : store.snapshot(ctx.rank())) {
      if (shard.offset == staging) continue;
      if (!ctx.shared_allocator().is_live(shard.offset)) continue;
      if (ctx.shared_allocator().allocation_size(shard.offset) !=
          shard.data.size()) {
        continue;
      }
      std::memcpy(ctx.arena().shared_at(shard.offset), shard.data.data(),
                  shard.data.size());
      report.restored_bytes += shard.data.size();
    }
  }

  // (2) Orphans: ranks an agreement excluded (dead or partitioned away)
  // that are not on this team and left a snapshot. The set comes from the
  // agreements' decisions, not from the live failure view: a partitioned
  // rank joins failed_ranks() only when its fiber finishes unwinding, which
  // host scheduling decides. Deterministic deal: orphan i (ascending rank)
  // -> team rank i % n. Every member computes the same mapping from the
  // same roster — no exchange.
  std::vector<int> orphan_ranks;
  for (const int r : machine.recovery().excluded_ranks()) {
    bool member = false;
    for (int t = 0; t < comm.n_pes(); ++t) {
      if (comm.world_rank(t) == r) {
        member = true;
        break;
      }
    }
    if (!member && store.has_snapshot(r)) orphan_ranks.push_back(r);
  }
  std::uint64_t orphan_total = 0;
  for (std::size_t i = 0; i < orphan_ranks.size(); ++i) {
    const int owner = static_cast<int>(i) % comm.n_pes();
    orphan_total += store.bytes(orphan_ranks[i]);
    if (owner != comm.rank()) continue;
    for (HeapShard& shard : store.snapshot(orphan_ranks[i])) {
      if (shard.offset == staging) continue;
      report.orphan_bytes += shard.data.size();
      report.orphans.push_back(OrphanShard{
          orphan_ranks[i], shard.offset, std::move(shard.data)});
    }
  }

  ctx.clock().advance(replication_cycles(
      machine.network().params(), report.restored_bytes + report.orphan_bytes,
      1 + report.orphans.size()));

  RecoveryCounters& counters = machine.recovery().counters();
  if (comm.rank() == 0) {
    counters.restores.fetch_add(1);
    counters.orphaned_bytes.fetch_add(orphan_total);
  }
  counters.restored_bytes.fetch_add(report.restored_bytes);
  ctx.trace().record(EventKind::kRecovery, -1,
                     static_cast<std::uint64_t>(RecoveryOp::kRestore),
                     report.restored_bytes + report.orphan_bytes);

  comm.barrier();
  return report;
}

RestoreReport xbr_restore() { return xbr_restore(world_comm()); }

}  // namespace xbgas
