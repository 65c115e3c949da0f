#include "xbrtime/wc.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#include "fault/errors.hpp"
#include "fault/injector.hpp"
#include "machine/fiber.hpp"
#include "net/fabric.hpp"
#include "olb/olb.hpp"
#include "san/sanitizer.hpp"
#include "xbrtime/transport.hpp"

namespace xbgas {

namespace {

struct WcCountersAtomic {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
};

WcCountersAtomic& wc_counters_atomic() {
  static WcCountersAtomic counters;
  return counters;
}

}  // namespace

WcCounters wc_counters() {
  WcCountersAtomic& c = wc_counters_atomic();
  return WcCounters{
      .puts = c.puts.load(std::memory_order_relaxed),
      .enqueued = c.enqueued.load(std::memory_order_relaxed),
      .flushes = c.flushes.load(std::memory_order_relaxed),
      .messages = c.messages.load(std::memory_order_relaxed),
      .bytes = c.bytes.load(std::memory_order_relaxed),
  };
}

void reset_wc_counters() {
  WcCountersAtomic& c = wc_counters_atomic();
  c.puts.store(0, std::memory_order_relaxed);
  c.enqueued.store(0, std::memory_order_relaxed);
  c.flushes.store(0, std::memory_order_relaxed);
  c.messages.store(0, std::memory_order_relaxed);
  c.bytes.store(0, std::memory_order_relaxed);
}

void xbr_wc_enable(std::size_t threshold_bytes, std::size_t capacity_entries) {
  PeContext& ctx = xbrtime_ctx();
  WriteCombinerState& wc = ctx.xbrtime_state().wc;
  detail::wc_flush_all(ctx);  // re-enable with new knobs starts empty
  wc.enabled = true;
  wc.threshold_bytes = threshold_bytes;
  wc.capacity_entries = std::max<std::size_t>(capacity_entries, 1);
  wc.targets.assign(static_cast<std::size_t>(ctx.n_pes()), WcTargetBuffer{});
}

void xbr_wc_disable() {
  PeContext& ctx = xbrtime_ctx();
  detail::wc_flush_all(ctx);
  ctx.xbrtime_state().wc.enabled = false;
}

bool xbr_wc_enabled() {
  return xbrtime_ctx().xbrtime_state().wc.enabled;
}

void xbr_wc_flush() { detail::wc_flush_all(xbrtime_ctx()); }

namespace detail {

bool wc_try_enqueue(void* dest, const void* src, std::size_t elem_size,
                    std::size_t nelems, int stride, int pe) {
  wc_counters_atomic().puts.fetch_add(1, std::memory_order_relaxed);
  PeContext& ctx = xbrtime_ctx();
  WriteCombinerState& wc = ctx.xbrtime_state().wc;
  const std::size_t bytes = elem_size * nelems;
  if (!wc.enabled || stride != 1 || pe == ctx.rank() || nelems == 0 ||
      bytes > wc.threshold_bytes || !ctx.arena().in_shared(dest, bytes)) {
    return false;
  }
  FiberScheduler::poll_yield();

  // XbrSan sees the put at enqueue time: bounds/lifetime/conflicts on the
  // remote range and local-hazard checks on the source, so a bad wc put is
  // diagnosed where it was issued, not at some later flush point.
  Sanitizer& san = ctx.machine().sanitizer();
  if (san.enabled()) {
    san.check_remote("xbr_put_wc", ctx.rank(), pe,
                     ctx.arena().shared_offset_of(dest), bytes,
                     ctx.arena().shared_size(), SanAccess::kWrite,
                     ctx.clock().cycles(), &ctx.trace());
  }
  if (san.conflicts_enabled()) {
    san.check_local("xbr_put_wc", ctx.rank(), src, bytes, /*is_write=*/false,
                    &ctx.trace());
  }

  // Enqueue cost: reading the source (the same accounting rma_transfer
  // applies to its local side) plus the per-element issue work the hardware
  // still performs; the per-MESSAGE alpha is what batching saves.
  ctx.clock().advance(local_access_cycles(ctx, src, bytes) +
                      issue_cycles(ctx.machine().network().params(), nelems));

  WcTargetBuffer& buf = wc.targets[static_cast<std::size_t>(pe)];
  const std::size_t pos = buf.payload.size();
  buf.payload.resize(pos + bytes);
  std::memcpy(buf.payload.data() + pos, src, bytes);
  buf.entries.push_back(
      WcEntry{ctx.arena().shared_offset_of(dest), pos, bytes});
  wc_counters_atomic().enqueued.fetch_add(1, std::memory_order_relaxed);
  if (buf.entries.size() >= wc.capacity_entries) {
    wc_flush_target(ctx, pe);
  }
  return true;
}

void wc_flush_target(PeContext& ctx, int pe) {
  WriteCombinerState& wc = ctx.xbrtime_state().wc;
  if (wc.targets.empty()) return;
  WcTargetBuffer& buf = wc.targets[static_cast<std::size_t>(pe)];
  if (buf.entries.empty()) return;

  NetworkModel& net = ctx.machine().network();
  FaultInjector& fault = ctx.machine().fault_injector();
  const FaultConfig& fc = fault.config();
  const bool faults_on = fault.enabled();
  const int rank = ctx.rank();
  if (faults_on) fault.on_rma_issue(rank);  // scripted-kill site (may throw)

  const std::size_t total = buf.payload.size();
  std::uint64_t cycles = 0;

  // One message for the whole batch: bounded retry against translation
  // faults, drops, and the scripted link plan, exactly like rma_transfer.
  // The payload-corruption stages are skipped (see wc.hpp).
  const bool links_on = !net.link_faults().empty();
  const int max_attempts = 1 + std::max(0, fc.max_rma_retries);
  int attempt = 0;
  for (;;) {
    ++attempt;
    (void)ctx.olb().lookup(object_id_for_pe(pe));
    cycles += net.put_cost(rank, pe, total);
    net.record(/*is_put=*/true, total, rank, pe);

    if (links_on) {
      const LinkStatus ls = link_attempt_status(
          ctx, pe, ctx.clock().cycles() + cycles, attempt);
      if (ls == LinkStatus::kDown) {
        if (attempt >= max_attempts) {
          ctx.clock().advance(cycles);
          // Drop the batch before the throw: the flush failed terminally and
          // must not replay stale entries on the next enqueue.
          buf.entries.clear();
          buf.payload.clear();
          throw_transfer_failed(
              ctx, pe, "wc_flush", attempt,
              "wc_flush: " + std::to_string(attempt) +
                  " batched attempts dropped by a down link (PE " +
                  std::to_string(rank) + " -> " + std::to_string(pe) + ", " +
                  std::to_string(total) + " bytes)");
        }
        cycles += note_retry(ctx, fault, pe, attempt);
        continue;
      }
      if (ls == LinkStatus::kDegraded) {
        cycles += net.degraded_penalty_cycles(total);
      }
    }

    // Translation fault first, then drop: the draw order of rma_transfer,
    // each fault counted and traced at its own site.
    const bool olb = faults_on && fault.draw_olb_fault(rank);
    if (olb || (faults_on && fault.draw_rma_drop(rank))) {
      (olb ? fault.counters().olb_faults : fault.counters().rma_drops)
          .fetch_add(1, std::memory_order_relaxed);
      note_fault(ctx, pe, olb ? FaultSite::kOlbFault : FaultSite::kRmaDrop,
                 attempt);
      if (attempt >= max_attempts) {
        ctx.clock().advance(cycles);
        buf.entries.clear();
        buf.payload.clear();
        throw_transfer_failed(
            ctx, pe, "wc_flush", attempt,
            "wc_flush: batched transfer lost " + std::to_string(attempt) +
                " times, retries exhausted (PE " + std::to_string(rank) +
                " -> " + std::to_string(pe) + ", " + std::to_string(total) +
                " bytes)");
      }
      cycles += note_retry(ctx, fault, pe, attempt);
      continue;
    }

    if (faults_on && fault.draw_rma_delay(rank)) {
      fault.counters().rma_delays.fetch_add(1, std::memory_order_relaxed);
      note_fault(ctx, pe, FaultSite::kRmaDelay, attempt);
      cycles += fc.delay_cycles;
    }
    break;
  }

  for (const WcEntry& e : buf.entries) {
    std::byte* target =
        ctx.resolve_symmetric(pe, ctx.arena().shared_at(e.offset));
    std::memcpy(target, buf.payload.data() + e.pos, e.bytes);
  }

  ctx.clock().advance(cycles);
  ctx.trace().record(EventKind::kWcFlush, pe, total, buf.entries.size());
  WcCountersAtomic& c = wc_counters_atomic();
  c.flushes.fetch_add(1, std::memory_order_relaxed);
  c.messages.fetch_add(buf.entries.size(), std::memory_order_relaxed);
  c.bytes.fetch_add(total, std::memory_order_relaxed);
  buf.entries.clear();
  buf.payload.clear();
}

void wc_flush_all(PeContext& ctx) {
  const WriteCombinerState& wc = ctx.xbrtime_state().wc;
  if (!wc.enabled && wc.targets.empty()) return;
  for (int pe = 0; pe < ctx.n_pes(); ++pe) {
    wc_flush_target(ctx, pe);
  }
}

}  // namespace detail

}  // namespace xbgas
