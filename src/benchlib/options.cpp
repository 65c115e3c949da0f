#include "benchlib/options.hpp"

#include <string>

#include "collectives/policy.hpp"
#include "common/error.hpp"

namespace xbgas {

MachineConfig machine_config_from_cli(const CliArgs& args, int n_pes) {
  MachineConfig config;
  config.n_pes = n_pes;
  config.topology_name = args.get("topology", "flat");
  config.layout.shared_bytes =
      static_cast<std::size_t>(args.get_int("shared-mb", 64)) << 20;
  config.layout.private_bytes =
      static_cast<std::size_t>(args.get_int("private-mb", 8)) << 20;
  config.net.fabric_bytes_per_cycle =
      args.get_double("fabric-bpc", config.net.fabric_bytes_per_cycle);
  config.net.link_bytes_per_cycle =
      args.get_double("link-bpc", config.net.link_bytes_per_cycle);
  config.net.fabric_message_cycles = static_cast<std::uint64_t>(
      args.get_int("fabric-mpc",
                   static_cast<std::int64_t>(config.net.fabric_message_cycles)));

  config.trace.enabled = args.has("trace-out");
  config.trace.ring_capacity = static_cast<std::size_t>(args.get_int(
      "trace-capacity",
      static_cast<std::int64_t>(config.trace.ring_capacity)));

  config.fault.seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0));
  config.fault.rma_drop_prob = args.get_double("fault-rma-drop", 0.0);
  config.fault.rma_delay_prob = args.get_double("fault-rma-delay", 0.0);
  config.fault.delay_cycles = static_cast<std::uint64_t>(args.get_int(
      "fault-delay-cycles",
      static_cast<std::int64_t>(config.fault.delay_cycles)));
  config.fault.rma_bitflip_prob = args.get_double("fault-bitflip", 0.0);
  config.fault.olb_fault_prob = args.get_double("fault-olb", 0.0);
  config.fault.amo_drop_prob = args.get_double("fault-amo-drop", 0.0);
  config.fault.amo_delay_prob = args.get_double("fault-amo-delay", 0.0);
  config.fault.max_rma_retries = static_cast<int>(
      args.get_int("fault-retries", config.fault.max_rma_retries));
  // Without checksums an injected bit-flip would be silent corruption, so
  // verification defaults on whenever bit-flips are being injected.
  config.fault.verify_checksum =
      args.get_bool("fault-checksum", config.fault.rma_bitflip_prob > 0.0);
  const std::int64_t timeout_ms = args.get_int("fault-timeout-ms", 0);
  if (args.has("fault-timeout-ms") && timeout_ms <= 0) {
    throw FaultConfigError(
        "--fault-timeout-ms must be positive (omit the flag to disable the "
        "barrier watchdog), got " + std::to_string(timeout_ms));
  }
  config.fault.barrier_timeout_ms = static_cast<std::uint64_t>(timeout_ms);
  const std::int64_t agree_ms = args.get_int("fault-agree-timeout-ms", 0);
  if (args.has("fault-agree-timeout-ms") && agree_ms <= 0) {
    throw FaultConfigError(
        "--fault-agree-timeout-ms must be positive (omit the flag to keep "
        "the agreement board's 60 s safety net), got " +
        std::to_string(agree_ms));
  }
  config.fault.agree_timeout_ms = static_cast<std::uint64_t>(agree_ms);

  // One or more scripted kills: RANK:SITE:K[,RANK:SITE:K...]. Full
  // validation (rank range, K >= 1) happens in validate_fault_config when
  // the Machine is constructed.
  std::string kills = args.get("fault-kill", "");
  while (!kills.empty()) {
    const std::size_t comma = kills.find(',');
    const std::string kill = kills.substr(0, comma);
    kills = comma == std::string::npos ? "" : kills.substr(comma + 1);

    const std::size_t c1 = kill.find(':');
    const std::size_t c2 = c1 == std::string::npos
                               ? std::string::npos
                               : kill.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      throw Error(
          "--fault-kill expects RANK:SITE:K[,RANK:SITE:K...] "
          "(e.g. 2:barrier:3), got " + kill);
    }
    KillSpec spec;
    const std::string site = kill.substr(c1 + 1, c2 - c1 - 1);
    if (site == "barrier") {
      spec.site = KillSite::kBarrier;
    } else if (site == "rma") {
      spec.site = KillSite::kRma;
    } else if (site == "agree") {
      spec.site = KillSite::kAgree;
    } else if (site == "amo") {
      spec.site = KillSite::kAmo;
    } else {
      throw Error(
          "--fault-kill site must be barrier, rma, agree, or amo, got " +
          site);
    }
    spec.rank = std::stoi(kill.substr(0, c1));
    spec.at = static_cast<std::uint64_t>(std::stoll(kill.substr(c2 + 1)));
    config.fault.kills.push_back(spec);
  }

  // Scripted link faults: A-B:MODE@AT[@HEAL][,...], MODE in {down,degraded}.
  // AT/HEAL are modeled cycles on the observing PE's clock; full range
  // validation happens in validate_fault_config.
  std::string links = args.get("fault-link", "");
  while (!links.empty()) {
    const std::size_t comma = links.find(',');
    const std::string one = links.substr(0, comma);
    links = comma == std::string::npos ? "" : links.substr(comma + 1);

    const std::size_t dash = one.find('-');
    const std::size_t colon =
        dash == std::string::npos ? std::string::npos : one.find(':', dash + 1);
    const std::size_t at1 = colon == std::string::npos
                                ? std::string::npos
                                : one.find('@', colon + 1);
    if (at1 == std::string::npos) {
      throw Error(
          "--fault-link expects A-B:MODE@AT[@HEAL][,...] "
          "(e.g. 0-3:down@500), got " + one);
    }
    LinkSpec spec;
    const std::string mode = one.substr(colon + 1, at1 - colon - 1);
    if (mode == "down") {
      spec.mode = LinkFaultMode::kDown;
    } else if (mode == "degraded") {
      spec.mode = LinkFaultMode::kDegraded;
    } else {
      throw Error("--fault-link mode must be down or degraded, got " + mode);
    }
    spec.a = std::stoi(one.substr(0, dash));
    spec.b = std::stoi(one.substr(dash + 1, colon - dash - 1));
    const std::size_t at2 = one.find('@', at1 + 1);
    spec.at = static_cast<std::uint64_t>(
        std::stoll(one.substr(at1 + 1, at2 == std::string::npos
                                           ? std::string::npos
                                           : at2 - at1 - 1)));
    if (at2 != std::string::npos) {
      spec.heal_at =
          static_cast<std::uint64_t>(std::stoll(one.substr(at2 + 1)));
    }
    config.fault.links.push_back(spec);
  }

  // Scripted 2-way partitions: LO-HI@AT[@HEAL][,...] — ranks [LO, HI]
  // versus everyone else, every crossing link down.
  std::string parts = args.get("fault-partition", "");
  while (!parts.empty()) {
    const std::size_t comma = parts.find(',');
    const std::string one = parts.substr(0, comma);
    parts = comma == std::string::npos ? "" : parts.substr(comma + 1);

    const std::size_t dash = one.find('-');
    const std::size_t at1 =
        dash == std::string::npos ? std::string::npos : one.find('@', dash + 1);
    if (at1 == std::string::npos) {
      throw Error(
          "--fault-partition expects LO-HI@AT[@HEAL][,...] "
          "(e.g. 0-31@2000), got " + one);
    }
    PartitionSpec spec;
    spec.lo = std::stoi(one.substr(0, dash));
    spec.hi = std::stoi(one.substr(dash + 1, at1 - dash - 1));
    const std::size_t at2 = one.find('@', at1 + 1);
    spec.at = static_cast<std::uint64_t>(
        std::stoll(one.substr(at1 + 1, at2 == std::string::npos
                                           ? std::string::npos
                                           : at2 - at1 - 1)));
    if (at2 != std::string::npos) {
      spec.heal_at =
          static_cast<std::uint64_t>(std::stoll(one.substr(at2 + 1)));
    }
    config.fault.partitions.push_back(spec);
  }

  config.fault.degraded_beta_factor =
      args.get_double("fault-link-beta", config.fault.degraded_beta_factor);
  config.fault.degraded_alpha_cycles = static_cast<std::uint64_t>(args.get_int(
      "fault-link-alpha",
      static_cast<std::int64_t>(config.fault.degraded_alpha_cycles)));

  config.coll_algo = args.get("coll-algo", "auto");
  (void)parse_coll_algo(config.coll_algo);  // validate eagerly, clear error

  config.coll_tune_table = args.get("coll-tune-table", "");
  const std::int64_t radix = args.get_int("coll-radix", 0);
  if (radix < 0 || radix == 1) {
    throw Error("--coll-radix must be 0 (default) or >= 2");
  }
  config.coll_radix = static_cast<int>(radix);

  const std::int64_t workers = args.get_int("sched-workers", 0);
  if (workers < 0) {
    throw Error("--sched-workers must be >= 0 (0 = hardware concurrency)");
  }
  config.sched.workers = static_cast<int>(workers);
  const std::int64_t stack_kb = args.get_int("sched-stack-kb", 512);
  if (stack_kb < 64) {
    throw Error("--sched-stack-kb must be >= 64 (PE bodies need headroom)");
  }
  config.sched.stack_bytes = static_cast<std::size_t>(stack_kb) << 10;
  config.sched.yield_inject_prob = args.get_double("sched-yield-inject", 0.0);
  if (config.sched.yield_inject_prob < 0.0 ||
      config.sched.yield_inject_prob > 1.0) {
    throw Error("--sched-yield-inject must be a probability in [0, 1]");
  }
  config.sched.yield_inject_seed =
      static_cast<std::uint64_t>(args.get_int("sched-yield-seed", 0));

  config.san.mode = parse_san_mode(args.get("xbrsan", "off"));

  const std::string barrier = args.get("barrier", "dissemination");
  if (barrier == "dissemination") {
    config.net.barrier_algorithm = BarrierAlgorithm::kDissemination;
  } else if (barrier == "central") {
    config.net.barrier_algorithm = BarrierAlgorithm::kCentral;
  } else if (barrier == "tournament") {
    config.net.barrier_algorithm = BarrierAlgorithm::kTournament;
  } else {
    throw Error("unknown barrier algorithm: " + barrier);
  }
  return config;
}

std::vector<int> pe_counts_from_cli(const CliArgs& args) {
  return args.get_int_list("pes", {1, 2, 4, 8});
}

}  // namespace xbgas
