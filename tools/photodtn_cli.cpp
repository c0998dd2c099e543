// photodtn_cli — command-line driver for the photodtn library.
//
//   photodtn_cli simulate [--trace mit|cambridge] [--scheme A,B,...]
//                [--runs N] [--scale S] [--storage-gb G] [--rate R]
//                [--pois N] [--theta-deg D] [--p-thld P] [--hours H]
//                [--max-contact-s T] [--seed K] [--csv FILE] [--json FILE]
//                [--fault-interrupt P] [--fault-crash-rate R]
//                [--fault-gossip-loss P] [--metrics-out FILE]
//                [--trace-out FILE] [--provenance-out FILE]
//                [--checkpoint-every N --checkpoint-out FILE]
//                [--restore-from FILE]
//       Run trace-driven simulations and print the coverage results.
//       --checkpoint-every writes a crash-safe snapshot to --checkpoint-out
//       every N simulator events; --restore-from resumes a snapshotted run
//       and finishes byte-identically to the uninterrupted one. Both are
//       limited to --runs 1 with a single --scheme.
//       --metrics-out writes the merged metrics registry snapshots as JSON;
//       --trace-out writes run 0 of the first scheme as a Chrome trace
//       (chrome://tracing / Perfetto). Either flag switches the metrics tier
//       on for the run (and --trace-out the trace tier); the sinks are the
//       only switches.
//       --provenance-out writes run 0 of the first scheme as a per-photo
//       causal provenance JSONL (photodtn-provenance/1) for
//       tools/obs/provenance_report.py; it switches only the provenance
//       tier on, independent of metrics.
//
//   photodtn_cli trace-gen --out FILE [--trace mit|cambridge] [--scale S]
//                [--seed K]
//       Generate a synthetic contact trace and write it as CSV.
//
//   photodtn_cli trace-stats FILE
//       Print summary statistics of a trace file.
//
//   photodtn_cli schemes
//       List the available scheme names.
//
//   PHOTODTN_THREADS=N sets how many runs execute at once: an integer in
//   [1, 256], default the hardware concurrency. Any other value fails.
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>

#include "cli_config.h"
#include "geometry/angle.h"
#include "obs/chrome_trace.h"
#include "schemes/factory.h"
#include "sim/experiment.h"
#include "sim/result_io.h"
#include "trace/trace_analysis.h"
#include "trace/trace_io.h"
#include "util/args.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace photodtn;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: photodtn_cli <simulate|trace-gen|trace-stats|schemes> "
               "[options]\n       (see the header of tools/photodtn_cli.cpp "
               "for the full option list)\n");
  return 2;
}

int cmd_simulate(const Args& args) {
  ExperimentSpec spec = cli::spec_from(args);
  const std::vector<std::string> schemes = cli::schemes_from(args);
  const std::string csv = args.get("csv", "");
  const std::string json = args.get("json", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string trace_out = args.get("trace-out", "");
  const std::string provenance_out = args.get("provenance-out", "");
  const RunPersistence persistence =
      cli::persistence_from(args, spec.runs, schemes.size());
  cli::reject_unknown_options(args);
  cli::reject_stray_positionals(args, 0);
  // Sizes the run fan-out now, so a bad PHOTODTN_THREADS fails every
  // simulate, the single checkpointed run that never fans out included.
  ThreadPool::shared();
  if (!metrics_out.empty()) spec.scenario.sim.obs.metrics = true;
  if (!trace_out.empty()) {
    spec.scenario.sim.obs.metrics = true;
    spec.scenario.sim.obs.trace = true;
  }
  if (!provenance_out.empty()) spec.scenario.sim.obs.provenance = true;

  const ScenarioConfig& sc = spec.scenario;
  std::printf("simulate: %d participants, %.0fh, %zu PoIs, %.0f photos/h, "
              "%.2fGB storage, %zu run(s)\n",
              sc.trace.num_participants, sc.trace.duration_s / 3600.0, sc.num_pois,
              sc.photo_rate_per_hour,
              static_cast<double>(sc.sim.node_storage_bytes) / 1e9, spec.runs);

  std::vector<ExperimentResult> results;
  if (persistence.enabled()) {
    // One checkpointed/resumed run of the one scheme, folded through the
    // same aggregation as run_experiment so the output stays byte-comparable.
    spec.scheme = schemes.front();
    std::vector<SimResult> single;
    single.push_back(run_single(spec, spec.seed_base, persistence));
    results.push_back(aggregate_results(spec, std::move(single)));
  } else {
    results = run_comparison(spec, schemes);
  }
  Table table({"scheme", "point coverage", "aspect (rad)", "delivered", "ci95(point)"});
  for (const ExperimentResult& r : results) {
    table.add_row({r.scheme, r.final_point.mean(), r.final_aspect.mean(),
                   r.final_delivered.mean(), r.final_point.ci95_half_width()});
  }
  table.print(std::cout);
  if (!csv.empty()) {
    if (!table.write_csv_file(csv))
      throw std::runtime_error("cannot write csv to " + csv);
    std::printf("csv written to %s\n", csv.c_str());
  }
  if (!json.empty()) {
    if (!write_comparison_json(json, results))
      throw std::runtime_error("cannot write json to " + json);
    std::printf("json written to %s\n", json.c_str());
  }
  if (!metrics_out.empty()) {
    if (!write_metrics_json(metrics_out, results))
      throw std::runtime_error("cannot write metrics to " + metrics_out);
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    // Run 0 of the first scheme; the trace is keyed by simulation time and
    // stays byte-identical across thread counts.
    const ExperimentResult& first = results.front();
    if (!obs::write_chrome_trace(trace_out, first.trace_events, &first.metrics))
      throw std::runtime_error("cannot write trace to " + trace_out);
    std::printf("trace written to %s (%zu events)\n", trace_out.c_str(),
                first.trace_events.size());
  }
  if (!provenance_out.empty()) {
    const ExperimentResult& first = results.front();
    if (!write_provenance_jsonl(provenance_out, first))
      throw std::runtime_error("cannot write provenance to " + provenance_out);
    std::printf("provenance written to %s (%zu events)\n",
                provenance_out.c_str(), first.prov_events.size());
  }
  return 0;
}

int cmd_trace_gen(const Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) throw std::runtime_error("trace-gen requires --out FILE");
  const ScenarioConfig sc = cli::scenario_from(args);
  cli::reject_unknown_options(args);
  cli::reject_stray_positionals(args, 0);
  sc.validate(sc.trace.duration_s);
  const ContactTrace trace = generate_synthetic_trace(sc.trace);
  if (!write_trace_file(out, trace))
    throw std::runtime_error("cannot write trace to " + out);
  const TraceStats s = trace.stats();
  std::printf("wrote %zu contacts (%zu with the command center) over %.0fh to %s\n",
              s.contacts, s.command_center_contacts, trace.horizon() / 3600.0,
              out.c_str());
  return 0;
}

int cmd_trace_stats(const Args& args) {
  if (args.positionals().empty())
    throw std::runtime_error("trace-stats requires a trace file argument");
  cli::reject_unknown_options(args);
  cli::reject_stray_positionals(args, 1);
  const ContactTrace trace = read_trace_file(args.positionals().front());
  const TraceStats s = trace.stats();
  const InterContactDiagnostics d = inter_contact_diagnostics(trace);
  Table table({"metric", "value"});
  table.add_row({std::string("nodes (incl. command center)"),
                 static_cast<std::int64_t>(trace.num_nodes())});
  table.add_row({std::string("horizon (h)"), trace.horizon() / 3600.0});
  table.add_row({std::string("contacts"), static_cast<std::int64_t>(s.contacts)});
  table.add_row({std::string("contacts with command center"),
                 static_cast<std::int64_t>(s.command_center_contacts)});
  table.add_row({std::string("pairs with >=1 contact"),
                 static_cast<std::int64_t>(s.pairs_with_contact)});
  table.add_row({std::string("mean contact duration (s)"), s.mean_duration});
  table.add_row({std::string("mean inter-contact time (h)"),
                 s.mean_inter_contact / 3600.0});
  table.add_row({std::string("inter-contact CV (1 = exponential)"), d.cv});
  table.add_row({std::string("KS distance vs exponential"), d.ks_distance});
  table.print(std::cout);
  std::printf("(eq. (1) metadata validation assumes exponential inter-contact "
              "times;\n KS distance below ~0.1 means the assumption is sound "
              "for this trace)\n");
  return 0;
}

int cmd_schemes(const Args& args) {
  cli::reject_unknown_options(args);
  cli::reject_stray_positionals(args, 0);
  for (const std::string& n : factory_scheme_names()) std::printf("%s\n", n.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Args::parse(argc, argv);
    if (args.command() == "simulate") return cmd_simulate(args);
    if (args.command() == "trace-gen") return cmd_trace_gen(args);
    if (args.command() == "trace-stats") return cmd_trace_stats(args);
    if (args.command() == "schemes") return cmd_schemes(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "photodtn_cli: %s\n", e.what());
    return 1;
  }
}
