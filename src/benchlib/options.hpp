#pragma once

// Shared CLI -> MachineConfig plumbing for the bench/ and examples/
// binaries: --topology, --pes, network-model overrides, and standard
// machine sizing.

#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "machine/machine.hpp"

namespace xbgas {

/// The flags machine_config_from_cli reads, for the CliArgs known-flag list
/// of a binary that calls it. Its tracing flags (--trace-out,
/// --trace-capacity) are in kObserveFlags instead: only a binary that calls
/// emit_observability writes the trace they turn on.
inline constexpr std::string_view kMachineFlags[] = {
    "topology", "shared-mb", "private-mb", "fabric-bpc", "fabric-mpc",
    "link-bpc", "barrier",
    "fault-seed", "fault-rma-drop", "fault-rma-delay", "fault-delay-cycles",
    "fault-bitflip", "fault-olb", "fault-amo-drop", "fault-amo-delay",
    "fault-retries", "fault-checksum", "fault-timeout-ms",
    "fault-agree-timeout-ms", "fault-kill", "fault-link", "fault-partition",
    "fault-link-beta", "fault-link-alpha",
    "coll-algo", "coll-tune-table", "coll-radix",
    "sched-workers", "sched-stack-kb", "sched-yield-inject", "sched-yield-seed",
    "xbrsan",
};

/// Machine configuration from common flags:
///   --topology flat|ring|torus|hypercube   (default flat)
///   --shared-mb N                          shared segment size per PE
///   --private-mb N                         private segment size per PE
///   --fabric-bpc X                         fabric bytes/cycle
///   --fabric-mpc N                         fabric cycles/message
///   --link-bpc X                           link bytes/cycle
///   --barrier dissemination|central|tournament
///   --trace-out PATH                       enable tracing; write the trace
///                                          to PATH at emit_observability
///                                          (.csv => CSV, else Chrome JSON)
///   --trace-capacity N                     events retained per PE
///
/// Fault-injection flags (docs/RESILIENCE.md):
///   --fault-seed N             master seed; same seed => same fault placement
///   --fault-rma-drop P         P(transient drop) per remote RMA attempt
///   --fault-rma-delay P        P(extra delay) per remote RMA attempt
///   --fault-delay-cycles N     cycles added when a delay fault fires
///   --fault-bitflip P          P(one payload bit flipped) per transfer
///   --fault-olb P              P(transient OLB translation fault)
///   --fault-amo-drop P         P(remote RMW request dropped) per AMO attempt
///   --fault-amo-delay P        P(extra delay) per remote AMO attempt
///   --fault-retries N          max retries per transfer (default 6)
///   --fault-checksum 0|1       verify payload checksums (default: on when
///                              --fault-bitflip > 0)
///   --fault-timeout-ms N       barrier watchdog, host milliseconds (0 = off)
///   --fault-agree-timeout-ms N xbr_agree decision watchdog, host
///                              milliseconds (0 = the 60 s safety net)
///   --fault-kill RANK:SITE:K   kill RANK at its K-th SITE (barrier|rma|
///                              agree|amo), comma-separated for several,
///                              e.g. --fault-kill 2:barrier:3
///
/// XbrSan runtime sanitizer (docs/SANITIZER.md):
///   --xbrsan off|bounds|full   off (default): no checking; bounds: validate
///                              every remote-access target against the target
///                              PE's live symmetric allocations; full: bounds
///                              plus epoch-based RMA conflict detection
///
/// PE fiber scheduler (docs/SCALING.md):
///   --sched-workers N          worker threads
///                              (default 0 = min(hw concurrency, n_pes))
///   --sched-stack-kb N         stack KiB per PE fiber (default 512)
///   --sched-yield-inject P     P(extra yield) per cooperative poll point
///                              (test/shake-out aid; default 0)
///   --sched-yield-seed N       seed for the injected-yield stream
MachineConfig machine_config_from_cli(const CliArgs& args, int n_pes);

/// PE counts from --pes a,b,c (default: the paper's 1,2,4,8).
std::vector<int> pe_counts_from_cli(const CliArgs& args);

}  // namespace xbgas
