#include "cli_config.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "geometry/angle.h"
#include "workload/photo_gen.h"

namespace photodtn::cli {

namespace {

std::uint64_t seed_from(const Args& args) {
  const std::int64_t seed = args.get_int("seed", 1);
  if (seed < 0) throw std::runtime_error("--seed must be >= 0");
  return static_cast<std::uint64_t>(seed);
}

}  // namespace

ScenarioConfig scenario_from(const Args& args) {
  const std::string trace = args.get("trace", "mit");
  const std::uint64_t seed = seed_from(args);
  if (trace != "mit" && trace != "cambridge")
    throw std::runtime_error("--trace must be 'mit' or 'cambridge'");
  ScenarioConfig sc = trace == "cambridge" ? ScenarioConfig::cambridge(seed)
                                           : ScenarioConfig::mit(seed);
  const double scale = args.get_double("scale", 0.3);
  if (scale <= 0.0 || scale > 1.0)
    throw std::runtime_error("--scale must be in (0, 1]");
  sc.trace.num_participants =
      std::max<NodeId>(10, static_cast<NodeId>(sc.trace.num_participants * scale));
  sc.trace.duration_s *= scale;
  sc.photo_rate_per_hour *= scale;
  sc.sim.node_storage_bytes =
      static_cast<std::uint64_t>(static_cast<double>(sc.sim.node_storage_bytes) * scale);

  const std::int64_t pois = args.get_int("pois", static_cast<std::int64_t>(sc.num_pois));
  if (pois < 1) throw std::runtime_error("--pois must be >= 1");
  sc.num_pois = static_cast<std::size_t>(pois);
  const double theta_deg = args.get_double("theta-deg", 30.0);
  if (theta_deg <= 0.0 || theta_deg > 360.0)
    throw std::runtime_error("--theta-deg must be in (0, 360]");
  sc.effective_angle = deg_to_rad(theta_deg);
  sc.p_thld = args.get_double("p-thld", sc.p_thld);
  if (sc.p_thld < 0.0 || sc.p_thld > 1.0)
    throw std::runtime_error("--p-thld must be in [0, 1]");
  if (args.has("rate")) {
    const double rate = args.get_double("rate", 0);
    if (rate < 0.0) throw std::runtime_error("--rate must be >= 0");
    sc.photo_rate_per_hour = rate * scale;
  }
  if (args.has("storage-gb")) {
    const double bytes = args.get_double("storage-gb", 0.6) * 1e9 * scale;
    // 0x1p64 = 2^64: the cast to uint64_t is undefined at or above it.
    if (bytes < 0.0 || bytes >= 0x1p64)
      throw std::runtime_error("--storage-gb must be >= 0 and fit a 64-bit byte count");
    sc.sim.node_storage_bytes = static_cast<std::uint64_t>(bytes);
  }
  if (args.has("hours")) sc.trace.duration_s = args.get_double("hours", 0) * 3600.0;
  if (sc.trace.duration_s <= 0.0) throw std::runtime_error("--hours must be positive");
  sc.sim.sample_interval_s = std::max(3600.0, sc.trace.duration_s / 20.0);

  // Fault-layer knobs (dtn/fault.h); all default 0 = clean replay.
  FaultConfig& f = sc.sim.faults;
  f.contact_interrupt_prob =
      args.get_double("fault-interrupt", f.contact_interrupt_prob);
  if (f.contact_interrupt_prob < 0.0 || f.contact_interrupt_prob > 1.0)
    throw std::runtime_error("--fault-interrupt must be in [0, 1]");
  f.crash_rate_per_hour = args.get_double("fault-crash-rate", f.crash_rate_per_hour);
  if (f.crash_rate_per_hour < 0.0)
    throw std::runtime_error("--fault-crash-rate must be >= 0");
  f.gossip_loss_prob = args.get_double("fault-gossip-loss", f.gossip_loss_prob);
  if (f.gossip_loss_prob < 0.0 || f.gossip_loss_prob > 1.0)
    throw std::runtime_error("--fault-gossip-loss must be in [0, 1]");
  return sc;
}

ExperimentSpec spec_from(const Args& args) {
  ExperimentSpec spec;
  spec.scenario = scenario_from(args);
  const std::int64_t runs = args.get_int("runs", 3);
  if (runs < 1 || runs > static_cast<std::int64_t>(kMaxExperimentRuns))
    throw std::runtime_error("--runs must be in [1, " +
                             std::to_string(kMaxExperimentRuns) + "]");
  spec.runs = static_cast<std::size_t>(runs);
  spec.seed_base = seed_from(args);
  if (args.has("max-contact-s")) {
    const double cap = args.get_double("max-contact-s", 600.0);
    if (cap < 0.0) throw std::runtime_error("--max-contact-s must be >= 0");
    spec.max_contact_duration_s = cap;
  }
  spec.trace_file = args.get("trace-file", "");
  if (args.has("calibrated") && args.get("calibrated", "true") != "false")
    apply_mit_calibration(spec.scenario, spec.photo_options);
  return spec;
}

std::vector<std::string> schemes_from(const Args& args) {
  std::vector<std::string> schemes;
  std::stringstream list(args.get("scheme", "OurScheme,Spray&Wait"));
  std::string name;
  while (std::getline(list, name, ','))
    if (!name.empty()) schemes.push_back(name);
  if (schemes.empty()) throw std::runtime_error("--scheme needs at least one name");
  return schemes;
}

RunPersistence persistence_from(const Args& args, std::size_t runs,
                                std::size_t num_schemes) {
  RunPersistence p;
  const std::int64_t every = args.get_int("checkpoint-every", 0);
  if (every < 0)
    throw std::runtime_error("--checkpoint-every must be >= 0 events");
  p.checkpoint_every = static_cast<std::uint64_t>(every);
  p.checkpoint_path = args.get("checkpoint-out", "");
  p.restore_path = args.get("restore-from", "");
  if (p.checkpoint_every > 0 && p.checkpoint_path.empty())
    throw std::runtime_error("--checkpoint-every requires --checkpoint-out FILE");
  if (p.checkpoint_every == 0 && !p.checkpoint_path.empty())
    throw std::runtime_error("--checkpoint-out requires --checkpoint-every N");
  if (p.enabled() && (runs != 1 || num_schemes != 1))
    throw std::runtime_error(
        "checkpoint/restore works on exactly one run: use --runs 1 and a "
        "single --scheme");
  return p;
}

void reject_unknown_options(const Args& args) {
  if (const auto unused = args.unused_keys(); !unused.empty())
    throw std::runtime_error("unknown option --" + unused.front());
}

void reject_stray_positionals(const Args& args, std::size_t expected) {
  if (args.positionals().size() > expected)
    throw std::runtime_error("unexpected argument '" +
                             args.positionals()[expected] + "'");
}

}  // namespace photodtn::cli
