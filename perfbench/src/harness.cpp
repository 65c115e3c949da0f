#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <thread>

#include "collectives/nbi.hpp"
#include "collectives/policy.hpp"
#include "serving/counters.hpp"
#include "trace/collect.hpp"
#include "xbrtime/nbi.hpp"
#include "xbrtime/wc.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::add(const std::string& name, double value,
                 const std::string& unit, ClockKind clock,
                 const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, clock, note});
}

void Report::error(const std::string& what) {
  if (errors_.size() < 32) errors_.push_back(what);
  std::printf("VERIFY FAILED: %s\n", what.c_str());
}

void Report::print_table(const std::string& title) const {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-36s %18s  %-8s %-8s %s\n", "metric", "value", "unit",
              "clock", "note");
  for (const Metric& m : metrics_) {
    std::printf("%-36s %18.6g  %-8s %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.clock == ClockKind::kModeled ? "modeled" : "host",
                m.note.c_str());
  }
  const double frac = attempted == 0
                          ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  std::printf("%-36s %18.6g  %-8s %-8s %llu of %llu ops failed or "
              "mis-verified\n",
              "failed_frac", frac, "ratio", "modeled",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("verification: %s\n", correct() ? "OK" : "FAILED");
}

void Report::print_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
    out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

namespace {

std::size_t rank_index(std::size_t n, double p) {
  const auto idx =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(idx, 1, n) - 1;
}

}  // namespace

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double p) {
  return sorted.empty() ? 0 : sorted[rank_index(sorted.size(), p)];
}

double percentile(const std::vector<double>& sorted, double p) {
  return sorted.empty() ? 0.0 : sorted[rank_index(sorted.size(), p)];
}

Tail tail_of(const std::vector<std::uint64_t>& sorted) {
  Tail t;
  if (sorted.empty()) return t;
  t.value = sorted.back();
  for (const double p : {0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}) {
    const std::size_t idx = rank_index(sorted.size(), p);
    const std::size_t beyond = sorted.size() - 1 - idx;
    if (beyond < 10) break;
    t = Tail{p * 100.0, sorted[idx], beyond};
  }
  return t;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

void SpanLog::reset(int n_pes, std::size_t capacity_per_slot) {
  slots_.assign(static_cast<std::size_t>(n_pes) + 1, Slot{});
  for (Slot& s : slots_) {
    s.capacity = capacity_per_slot;
    s.spans.reserve(std::min<std::size_t>(capacity_per_slot, 4096));
  }
  epoch_ = Clock::now();
}

int SpanLog::begin(int slot, const char* name, std::int64_t op,
                   std::uint64_t cycles, bool blocking) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (!s.on) return -1;
  if (s.spans.size() >= s.capacity) {
    ++s.dropped;
    return -1;
  }
  Span sp;
  sp.name = name;
  sp.op = op;
  sp.parent = s.open.empty() ? -1 : s.open.back();
  sp.blocking = blocking;
  sp.cyc0 = cycles;
  sp.host0 = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch_)
                 .count();
  s.spans.push_back(sp);
  const auto idx = static_cast<std::int32_t>(s.spans.size() - 1);
  s.open.push_back(idx);
  return idx;
}

void SpanLog::end(int slot, int index, std::uint64_t cycles) {
  if (index < 0) return;
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  Span& sp = s.spans[static_cast<std::size_t>(index)];
  sp.host1 = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch_)
                 .count();
  sp.cyc1 = cycles;
  if (!s.open.empty() && s.open.back() == index) s.open.pop_back();
}

std::uint64_t SpanLog::recorded() const {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.spans.size();
  return n;
}

std::uint64_t SpanLog::dropped() const {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.dropped;
  return n;
}

std::map<std::string, SpanLog::NameTotals> SpanLog::totals() const {
  std::map<std::string, NameTotals> out;
  for (const Slot& s : slots_) {
    // Children run inside their parent on the same PE, one after another,
    // so the time they cover is the sum of their durations.
    std::vector<std::int64_t> child_ns(s.spans.size(), 0);
    for (const Span& sp : s.spans) {
      if (sp.parent >= 0) {
        child_ns[static_cast<std::size_t>(sp.parent)] += sp.host1 - sp.host0;
      }
    }
    for (std::size_t i = 0; i < s.spans.size(); ++i) {
      const Span& sp = s.spans[i];
      NameTotals& t = out[sp.name];
      ++t.count;
      t.host_s += static_cast<double>(sp.host1 - sp.host0) * 1e-9;
      t.self_s +=
          static_cast<double>(sp.host1 - sp.host0 - child_ns[i]) * 1e-9;
      t.cycles += sp.cyc1 - sp.cyc0;
      t.blocking = t.blocking || sp.blocking;
    }
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    for (const Span& sp : slots_[slot].spans) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"pe\": %d, \"op\": %lld, "
                   "\"parent\": %d, \"host_start_ns\": %lld, "
                   "\"host_end_ns\": %lld, \"modeled_start\": %llu, "
                   "\"modeled_end\": %llu, \"blocking\": %s}\n",
                   sp.name, static_cast<int>(slot) - 1,
                   static_cast<long long>(sp.op), sp.parent,
                   static_cast<long long>(sp.host0),
                   static_cast<long long>(sp.host1),
                   static_cast<unsigned long long>(sp.cyc0),
                   static_cast<unsigned long long>(sp.cyc1),
                   sp.blocking ? "true" : "false");
    }
  }
  return std::fclose(f) == 0;
}

Scope::Scope(SpanLog& log, const char* name, std::int64_t op, bool blocking)
    : log_(log) {
  xbgas::PeContext* pe = xbgas::current_pe_context();
  slot_ = pe == nullptr ? 0 : pe->rank() + 1;
  if (!log_.enabled(slot_)) return;
  index_ = log_.begin(slot_, name, op, pe == nullptr ? 0 : pe->clock().cycles(),
                      blocking);
}

Scope::~Scope() {
  if (index_ < 0) return;
  xbgas::PeContext* pe = xbgas::current_pe_context();
  log_.end(slot_, index_, pe == nullptr ? 0 : pe->clock().cycles());
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

void reset_ledgers() {
  xbgas::reset_coll_dispatch_counts();
  xbgas::reset_coll_tuner_counters();
  xbgas::reset_coll_pipeline_counters();
  xbgas::reset_rma_nbi_counters();
  xbgas::reset_wc_counters();
  xbgas::serving_counters_reset();
}

xbgas::CounterRegistry snapshot_counters(const xbgas::Machine& machine) {
  xbgas::CounterRegistry reg = xbgas::collect_counters(machine);
  const xbgas::CollDispatchCounts coll = xbgas::coll_dispatch_counts();
  reg.set("coll.dispatch.total", coll.total);
  reg.set("coll.dispatch.auto", coll.auto_resolved);
  for (int a = 1; a < xbgas::kCollAlgoCount; ++a) {
    reg.set(std::string("coll.algo.") +
                xbgas::coll_algo_name(static_cast<xbgas::CollAlgo>(a)),
            coll.by_algo[a]);
  }
  const xbgas::RmaNbiCounters nbi = xbgas::rma_nbi_counters();
  reg.set("rma.nbi.puts", nbi.puts);
  reg.set("rma.nbi.gets", nbi.gets);
  const xbgas::WcCounters wc = xbgas::wc_counters();
  reg.set("rma.coalesced.flushes", wc.flushes);
  reg.set("rma.coalesced.messages", wc.messages);
  const xbgas::ServingCounters s = xbgas::serving_counters_snapshot();
  reg.set("serving.requests", s.requests);
  reg.set("serving.served", s.served);
  reg.set("serving.failed", s.failed);
  reg.set("serving.hedges", s.hedges);
  reg.set("serving.redirected", s.redirected);
  return reg;
}

std::uint64_t modeled_counter_digest(const xbgas::CounterRegistry& reg) {
  std::uint64_t d = kDigestSeed;
  for (const std::string& name : reg.names()) {
    const bool modeled = name.rfind("olb.", 0) == 0 ||
                         name.rfind("cache.", 0) == 0 ||
                         name.rfind("net.", 0) == 0 || name == "cycles.max";
    if (!modeled) continue;
    for (const char c : name) d = fold(d, static_cast<std::uint64_t>(c));
    d = fold(d, reg.get(name).value_or(0));
  }
  return d;
}

double counter_delta(const xbgas::CounterRegistry& after,
                     const xbgas::CounterRegistry& before,
                     const std::string& name) {
  return static_cast<double>(after.get(name).value_or(0)) -
         static_cast<double>(before.get(name).value_or(0));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------------

RegionCtx::RegionCtx(const RegionPlan& p, int n)
    : plan(p), n_pes(n), samples(static_cast<std::size_t>(n)) {
  spans.reset(n, p.span_capacity);
}

void start_window(RegionCtx& ctx) {
  const Clock::time_point now = Clock::now();
  ctx.setup_s = seconds_between(ctx.t_ctor0, now);
  ctx.deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(ctx.plan.budget_s));
}

void RegionCtx::pace(int rank, std::uint64_t steps_done) {
  if (rank != 0) return;
  if (stop_at_.load() != ~std::uint64_t{0}) return;
  const bool stop =
      plan.fixed_steps > 0
          ? steps_done >= plan.fixed_steps
          : steps_done % plan.steps_per_pass == 0 &&
                Clock::now() >= deadline_;
  if (stop) stop_at_.store(steps_done);
}

bool RegionCtx::keep_going(std::uint64_t steps_done) const {
  return stop_at_.load() != steps_done;
}

void RegionCtx::sample(int rank, std::uint64_t step, std::uint64_t cycles) {
  PeSamples& s = samples[static_cast<std::size_t>(rank)];
  if (step < plan.steps_per_pass) s.pass0.push_back(cycles);
  if (s.step_digests.size() <= step) {
    s.step_digests.resize(step + 1, kDigestSeed);
  }
  s.step_digests[step] = fold(s.step_digests[step], cycles);
}

void RegionCtx::window(std::uint64_t pass, double host_s, std::uint64_t ops) {
  if (pass_host_s.size() <= pass) {
    pass_host_s.resize(pass + 1, 0.0);
    pass_ops.resize(pass + 1, 0);
  }
  pass_host_s[pass] += host_s;
  pass_ops[pass] += ops;
}

void RegionCtx::error(const std::string& what) {
  std::lock_guard<std::mutex> lock(errors_mutex_);
  if (errors_.size() < 16) errors_.push_back(what);
}

void RegionCtx::fail_op(std::uint64_t op, const std::string& what) {
  std::lock_guard<std::mutex> lock(errors_mutex_);
  failed_ops_.insert(op);
  if (errors_.size() < 16) errors_.push_back(what);
}

std::uint64_t RegionCtx::failed_ops() const {
  std::lock_guard<std::mutex> lock(errors_mutex_);
  return failed_ops_.size();
}

std::vector<std::string> RegionCtx::errors() const {
  std::lock_guard<std::mutex> lock(errors_mutex_);
  return errors_;
}

double RegionCtx::window_s() const {
  double s = 0.0;
  for (const double h : pass_host_s) s += h;
  return s;
}

std::uint64_t RegionCtx::ops() const {
  std::uint64_t n = 0;
  for (const std::uint64_t o : pass_ops) n += o;
  return n;
}

bool RegionCtx::same_modeled(const RegionCtx& other) const {
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const std::vector<std::uint64_t>& a = samples[r].step_digests;
    const std::vector<std::uint64_t>& b = other.samples[r].step_digests;
    const std::size_t n = std::min(a.size(), b.size());
    if (!std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n),
                    b.begin())) {
      return false;
    }
  }
  const std::size_t n = std::min(passes(), other.passes());
  return std::equal(pass_span_cycles.begin(),
                    pass_span_cycles.begin() + static_cast<std::ptrdiff_t>(n),
                    other.pass_span_cycles.begin());
}

std::vector<std::uint64_t> RegionCtx::pass0_sorted() const {
  std::vector<std::uint64_t> all;
  for (const PeSamples& s : samples) {
    all.insert(all.end(), s.pass0.begin(), s.pass0.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

void probe_barrier(xbgas::PeContext& pe, RegionCtx& ctx, int reps) {
  xbgas::xbrtime_barrier();
  const std::uint64_t c0 = pe.clock().cycles();
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < reps; ++r) xbgas::xbrtime_barrier();
  if (pe.rank() == 0) {
    ctx.barrier_cycles =
        (pe.clock().cycles() - c0) / static_cast<std::uint64_t>(reps);
    ctx.barrier_host_us = seconds_between(t0, Clock::now()) * 1e6 / reps;
  }
}

std::uint64_t region_digest(const RegionCtx& ctx) {
  std::uint64_t d = modeled_counter_digest(ctx.counters);
  for (const PeSamples& s : ctx.samples) {
    for (const std::uint64_t step : s.step_digests) d = fold(d, step);
  }
  for (const std::uint64_t span : ctx.pass_span_cycles) d = fold(d, span);
  return d;
}

void fold_errors(const RegionCtx& ctx, Report& report) {
  for (const std::string& e : ctx.errors()) report.error(e);
  report.failed += ctx.failed_ops();
}

// ---------------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------------

void report_e2e(const std::vector<std::unique_ptr<RegionCtx>>& regions,
                std::uint64_t ops_per_pass, Report& report) {
  std::vector<double> setups;
  for (const auto& r : regions) {
    setups.push_back(r->setup_s);
    report.attempted += r->ops();
    fold_errors(*r, report);
  }
  const RegionCtx& ref = *regions.front();
  const double window = ref.window_s();
  const std::uint64_t ops = ref.ops();

  // Repeatability: every step every machine ran must reproduce the modeled
  // samples machine 0 recorded for the same step of the sequence.
  for (std::size_t m = 1; m < regions.size(); ++m) {
    if (!regions[m]->same_modeled(ref)) {
      report.error("modeled samples of machine " + std::to_string(m) +
                   " differ from machine 0 for the same steps");
    }
  }
  std::printf("repeatability: steps per machine");
  for (const auto& r : regions) {
    std::printf(" %llu", static_cast<unsigned long long>(r->steps));
  }
  std::printf(", modeled samples compared on the common prefix\n");

  const std::vector<std::uint64_t> sorted = ref.pass0_sorted();
  const Tail tail = tail_of(sorted);
  const std::string setup_note =
      "median of " + std::to_string(setups.size()) + " set-ups";
  report.add("setup_s", median(setups), "s", ClockKind::kHost, setup_note);
  report.add("host_ops_per_s", window > 0 ? static_cast<double>(ops) / window
                                          : 0.0,
             "1/s", ClockKind::kHost,
             std::to_string(ops) + " ops in " + std::to_string(window) +
                 " s of measured windows, " + std::to_string(ref.passes()) +
                 " whole passes");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", ClockKind::kHost,
             "getrusage max RSS of the benchmark process");
  report.add("modeled_op_p50_cycles",
             static_cast<double>(percentile(sorted, 0.5)), "cycles",
             ClockKind::kModeled,
             "n=" + std::to_string(sorted.size()) + " (pass 0)");
  char tail_note[96];
  std::snprintf(tail_note, sizeof(tail_note), "p%g, %zu of %zu samples beyond",
                tail.pct, tail.beyond, sorted.size());
  report.add("modeled_op_tail_cycles", static_cast<double>(tail.value),
             "cycles", ClockKind::kModeled, tail_note);
  const double span = ref.pass_span_cycles.empty()
                          ? 0.0
                          : static_cast<double>(ref.pass_span_cycles[0]);
  report.add("modeled_ops_per_mcycle",
             span > 0 ? static_cast<double>(ops_per_pass) * 1e6 / span : 0.0,
             "1/Mcycle", ClockKind::kModeled,
             std::to_string(ops_per_pass) + " ops over " +
                 std::to_string(static_cast<unsigned long long>(span)) +
                 " cycles (slowest PE, pass 0)");
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> defs = {
      {"machine.ctor_s", "s", ClockKind::kHost},
      {"machine.spawn_s", "s", ClockKind::kHost},
      {"machine.barrier.cycles", "cycles", ClockKind::kModeled},
      {"machine.barrier.host_us", "us", ClockKind::kHost},
      {"machine.sched.switches_per_op", "1/op", ClockKind::kHost},
      {"machine.sched.waiting_frac", "ratio", ClockKind::kHost},
      {"machine.sched.naps_per_op", "1/op", ClockKind::kHost},
      {"xbrtime.init_s", "s", ClockKind::kHost},
      {"xbrtime.malloc_s", "s", ClockKind::kHost},
      {"xbrtime.nbi.requests_per_op", "1/op", ClockKind::kModeled},
      {"xbrtime.wc.messages_per_flush", "ratio", ClockKind::kModeled},
      {"xbrtime.retries_per_op", "1/op", ClockKind::kModeled},
      {"coll.broadcast.cycles_p50", "cycles", ClockKind::kModeled},
      {"coll.broadcast.host_us_p50", "us", ClockKind::kHost},
      {"coll.reduce.cycles_p50", "cycles", ClockKind::kModeled},
      {"coll.reduce.host_us_p50", "us", ClockKind::kHost},
      {"coll.allreduce.cycles_p50", "cycles", ClockKind::kModeled},
      {"coll.allreduce.host_us_p50", "us", ClockKind::kHost},
      {"coll.allgather.cycles_p50", "cycles", ClockKind::kModeled},
      {"coll.allgather.host_us_p50", "us", ClockKind::kHost},
      {"coll.small.cycles_p50", "cycles", ClockKind::kModeled},
      {"coll.large.cycles_p50", "cycles", ClockKind::kModeled},
      {"coll.algo.tree_frac", "ratio", ClockKind::kModeled},
      {"coll.algo.ring_frac", "ratio", ClockKind::kModeled},
      {"coll.algo.hier_frac", "ratio", ClockKind::kModeled},
      {"coll.policy.decide_ns", "ns", ClockKind::kHost},
      {"coll.policy.model_error_pct", "%", ClockKind::kModeled},
      {"coll.policy.regret_pct", "%", ClockKind::kModeled},
      {"net.messages_per_op", "1/op", ClockKind::kModeled},
      {"net.bytes_per_op", "B/op", ClockKind::kModeled},
      {"net.hops_per_message", "ratio", ClockKind::kModeled},
      {"net.stall_cycles_per_op", "cycles/op", ClockKind::kModeled},
      {"olb.hit_ratio", "ratio", ClockKind::kModeled},
      {"olb.lookups_per_op", "1/op", ClockKind::kModeled},
      {"cache.l1.hit_ratio", "ratio", ClockKind::kModeled},
      {"cache.l2.hit_ratio", "ratio", ClockKind::kModeled},
      {"cache.tlb.hit_ratio", "ratio", ClockKind::kModeled},
      {"serving.get.cycles_p50", "cycles", ClockKind::kModeled},
      {"serving.get.cycles_tail", "cycles", ClockKind::kModeled},
      {"serving.put.cycles_p50", "cycles", ClockKind::kModeled},
      {"serving.put.cycles_tail", "cycles", ClockKind::kModeled},
      {"serving.incr.cycles_p50", "cycles", ClockKind::kModeled},
      {"serving.incr.cycles_tail", "cycles", ClockKind::kModeled},
      {"serving.attempts_per_request", "ratio", ClockKind::kModeled},
      {"serving.hedge_win_frac", "ratio", ClockKind::kModeled},
      {"serving.end_batch.cycles", "cycles", ClockKind::kModeled},
      {"serving.end_batch.host_us", "us", ClockKind::kHost},
      {"serving.execute.host_us", "us", ClockKind::kHost},
      {"serving.setup_s", "s", ClockKind::kHost},
      {"trace.overhead_frac", "ratio", ClockKind::kHost},
      {"trace.dropped", "count", ClockKind::kHost},
  };
  return defs;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void counter_layer_metrics(const RegionCtx& m, const RegionCtx& s,
                           std::uint64_t ops, LayerValues& out) {
  const auto d = [&](const char* name) {
    return counter_delta(m.counters, s.counters, name);
  };
  const double n = static_cast<double>(ops);
  const double switches =
      static_cast<double>(m.sched.switches) - static_cast<double>(s.sched.switches);
  const double waiting = static_cast<double>(m.sched.yields_waiting) -
                         static_cast<double>(s.sched.yields_waiting);
  const double naps =
      static_cast<double>(m.sched.naps) - static_cast<double>(s.sched.naps);
  out["machine.sched.switches_per_op"] = ratio(switches, n);
  out["machine.sched.waiting_frac"] = ratio(waiting, switches);
  out["machine.sched.naps_per_op"] = ratio(naps, n);
  out["machine.barrier.cycles"] = static_cast<double>(m.barrier_cycles);
  out["machine.barrier.host_us"] = m.barrier_host_us;

  out["xbrtime.nbi.requests_per_op"] =
      ratio(d("rma.nbi.puts") + d("rma.nbi.gets"), n);
  out["xbrtime.wc.messages_per_flush"] =
      ratio(d("rma.coalesced.messages"), d("rma.coalesced.flushes"));
  out["xbrtime.retries_per_op"] = ratio(d("rma.retries") + d("amo.retries"), n);

  const double coll = d("coll.dispatch.total");
  out["coll.algo.tree_frac"] = ratio(d("coll.algo.tree"), coll);
  out["coll.algo.ring_frac"] = ratio(d("coll.algo.ring"), coll);
  out["coll.algo.hier_frac"] = ratio(d("coll.algo.hier"), coll);

  const double messages = d("net.messages");
  out["net.messages_per_op"] = ratio(messages, n);
  out["net.bytes_per_op"] = ratio(d("net.bytes"), n);
  out["net.hops_per_message"] = ratio(d("net.hops"), messages);
  out["net.stall_cycles_per_op"] = ratio(d("net.stall_cycles"), n);

  const double lookups = d("olb.lookups");
  out["olb.hit_ratio"] = ratio(d("olb.hits"), lookups);
  out["olb.lookups_per_op"] = ratio(lookups, n);
  out["cache.l1.hit_ratio"] =
      ratio(d("cache.l1.hits"), d("cache.l1.accesses"));
  out["cache.l2.hit_ratio"] =
      ratio(d("cache.l2.hits"), d("cache.l2.accesses"));
  out["cache.tlb.hit_ratio"] =
      ratio(d("cache.tlb.hits"), d("cache.tlb.accesses"));
}

void setup_and_trace_metrics(const RegionCtx& m, const RegionCtx& s,
                             LayerValues& out) {
  out["machine.ctor_s"] = s.ctor_s;
  out["machine.spawn_s"] = s.spawn_s;
  out["xbrtime.init_s"] = s.init_s;
  out["xbrtime.malloc_s"] = s.malloc_s;
  out["trace.dropped"] =
      static_cast<double>(m.spans.dropped() + s.spans.dropped());
  // Passes alternate untraced (even) and traced (odd) on one machine.
  std::vector<double> plain;
  std::vector<double> traced;
  for (std::size_t k = 0; k < m.pass_host_s.size(); ++k) {
    (k % 2 == 0 ? plain : traced).push_back(m.pass_host_s[k]);
  }
  const double base = median(plain);
  out["trace.overhead_frac"] = base > 0 ? median(traced) / base - 1.0 : 0.0;
}

void emit_layer_metrics(const LayerValues& values, Report& report) {
  for (const LayerMetricDef& def : layer_metric_defs()) {
    const auto it = values.find(def.name);
    report.add(def.name, it == values.end() ? 0.0 : it->second, def.unit,
               def.clock, it == values.end() ? "n/a on this workload" : "");
  }
}

void print_span_table(const RegionCtx& setup, const RegionCtx& measured) {
  std::map<std::string, SpanLog::NameTotals> all = setup.spans.totals();
  for (const auto& [name, t] : measured.spans.totals()) {
    SpanLog::NameTotals& a = all[name];
    a.count += t.count;
    a.host_s += t.host_s;
    a.self_s += t.self_s;
    a.cycles += t.cycles;
    a.blocking = a.blocking || t.blocking;
  }
  std::printf("\n== spans (benchmark-side, traced set-up + traced passes; "
              "times and cycles summed over PEs) ==\n");
  std::printf("%-22s %9s %12s %12s %16s  %s\n", "span", "count", "host_ms",
              "self_ms", "modeled_cycles", "note");
  for (const auto& [name, t] : all) {
    std::printf("%-22s %9llu %12.3f %12.3f %16llu  %s\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.host_s * 1e3,
                t.self_s * 1e3, static_cast<unsigned long long>(t.cycles),
                t.blocking ? "blocking: host span includes other PEs' fibers "
                             "run on the same worker"
                           : "");
  }
}

void write_spans(const Options& opts, const RegionCtx& setup,
                 const RegionCtx& measured) {
  const std::filesystem::path dir = std::filesystem::path(".bench_build") /
                                    "spans";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string stem = opts.workload + "-seed" + std::to_string(opts.seed);
  const std::string a = (dir / (stem + "-setup.jsonl")).string();
  const std::string b = (dir / (stem + "-measured.jsonl")).string();
  if (setup.spans.write_jsonl(a) && measured.spans.write_jsonl(b)) {
    std::printf("spans: %llu recorded -> %s, %s\n",
                static_cast<unsigned long long>(setup.spans.recorded() +
                                                measured.spans.recorded()),
                a.c_str(), b.c_str());
  } else {
    std::printf("spans: could not write %s\n", dir.string().c_str());
  }
}

// ---------------------------------------------------------------------------
// Environment and committed artifacts
// ---------------------------------------------------------------------------

bool print_environment(const Options& opts, const xbgas::MachineConfig& cfg) {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  std::printf(
      "env: nproc %u, sched workers %d (pinned), build %s%s%s, compiler %s\n",
      std::thread::hardware_concurrency(), opts.workers, PERFBENCH_BUILD_TYPE,
      optimized ? "" : " (unoptimized)", sanitized ? " (sanitizer)" : "",
      __VERSION__);
  std::printf(
      "env: %d PEs, topology %s, shared %zu KiB + private %zu KiB per PE, "
      "fiber stack %zu KiB, coll policy %s, tracer off, XbrSan off\n",
      cfg.n_pes, cfg.topology_name.c_str(), cfg.layout.shared_bytes >> 10,
      cfg.layout.private_bytes >> 10, cfg.sched.stack_bytes >> 10,
      cfg.coll_algo.c_str());
  std::printf("env: workload %s, seed %llu, %g s measured, trace %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  if (!optimized || sanitized) {
    std::printf("perfbench: refusing to report host metrics from an "
                "unoptimized or sanitizer build\n");
    return false;
  }
  return true;
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

std::uint64_t committed_scaling_barrier(int n_pes) {
  const std::string text = read_file("BENCH_scaling.json");
  const std::regex re("\"n_pes\": " + std::to_string(n_pes) +
                      ", \"barrier_cycles\": ([0-9]+)");
  std::smatch m;
  return std::regex_search(text, m, re) ? std::stoull(m[1].str()) : 0;
}

std::uint64_t committed_osu_model(int pes, const std::string& kind,
                                  std::size_t nelems) {
  const std::string text = read_file("BENCH_osu.json");
  const std::string block_key = "{\"pes\": " + std::to_string(pes) + ",";
  const std::size_t block = text.find(block_key);
  if (block == std::string::npos) return 0;
  const std::size_t next = text.find("{\"pes\": ", block + block_key.size());
  const std::string body = text.substr(
      block, next == std::string::npos ? std::string::npos : next - block);
  const std::regex re("\"kind\": \"" + kind + "\", \"nelems\": " +
                      std::to_string(nelems) +
                      ", [^}]*\"model\": ([0-9]+)");
  std::smatch m;
  return std::regex_search(body, m, re) ? std::stoull(m[1].str()) : 0;
}

}  // namespace perfbench
