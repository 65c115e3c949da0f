#pragma once

// Post-run observability emission for the bench/ and examples/ binaries:
//
//   --trace-out PATH        write the recorded trace (Chrome trace_event
//                           JSON; PATH ending in .csv selects flat CSV)
//   --counters table|json   dump the machine-wide counter registry to
//                           stdout (default off)
//
// Call once after the final Machine::run region of interest; the flags are
// parsed from the same CliArgs the machine was configured with, so a binary
// gains the whole observability surface with a single call.

#include <string_view>

#include "common/cli.hpp"
#include "machine/machine.hpp"

namespace xbgas {

/// The flags emit_observability reads, plus machine_config_from_cli's
/// --trace-capacity, for a binary's CliArgs known list.
inline constexpr std::string_view kObserveFlags[] = {"trace-out", "counters",
                                                     "trace-capacity"};

/// Write --trace-out / --counters artifacts for `machine`. No-op when
/// neither flag is present. Throws xbgas::Error for an unknown --counters
/// mode or an unwritable trace path.
void emit_observability(Machine& machine, const CliArgs& args);

}  // namespace xbgas
