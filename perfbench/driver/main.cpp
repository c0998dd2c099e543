// perfbench_driver — runs one benchmark workload in this process and prints
// one JSON object (the last stdout line) for run.py to check and report.
//
//   perfbench_driver --mode e2e   --workload W --seed N --seconds S --scratch DIR
//   perfbench_driver --mode trace --workload W --seed N --seconds S --scratch DIR
//   perfbench_driver --mode digest --workload W --seed N --tier tiny|bench --scratch DIR
//   perfbench_driver --mode self-test --scratch DIR
//
// e2e times the library's entry points with tracing off; trace runs the
// traced replica (and the entry point, for the overhead and the digest
// cross-check); digest runs the entry point once; self-test checks the
// replica, the decorator and the attribution at the tiny tier.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "persist/file_io.h"
#include "schemes/factory.h"
#include "spans.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace perfbench;
using photodtn::JsonWriter;

namespace {

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string tier = "bench";
  std::string scratch = ".";
  std::vector<std::uint64_t> canary_seeds;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--mode") o.mode = v;
    else if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::stoull(v);
    else if (flag == "--seconds") o.seconds = std::stod(v);
    else if (flag == "--tier") o.tier = v;
    else if (flag == "--scratch") o.scratch = v;
    else if (flag == "--canary-seeds") {
      std::size_t pos = 0;
      while (pos < v.size()) {
        const std::size_t comma = std::min(v.find(',', pos), v.size());
        o.canary_seeds.push_back(std::stoull(v.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.tier != "tiny" && o.tier != "bench")
    throw std::invalid_argument("--tier must be tiny or bench");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void write_digests(JsonWriter& j, const Outputs& out) {
  j.begin_object();
  for (const auto& [name, hex] : out.digests) j.kv(name, hex);
  j.end_object();
}

/// The build this driver was compiled as; run.py refuses to time an
/// instrumented one.
void write_build(JsonWriter& j) {
  j.key("build").begin_object();
  j.kv("compiler", std::string(__VERSION__));
#ifdef NDEBUG
  j.kv("ndebug", true);
#else
  j.kv("ndebug", false);
#endif
#if defined(PHOTODTN_AUDIT_INVARIANTS) && PHOTODTN_AUDIT_INVARIANTS
  j.kv("audit", true);
#else
  j.kv("audit", false);
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  j.kv("sanitized", true);
#else
  j.kv("sanitized", false);
#endif
  j.kv("pool_lanes", static_cast<std::uint64_t>(photodtn::ThreadPool::shared().concurrency()));
  j.end_object();
}

/// Runs the tiny tier at the recorded seeds so every invocation re-checks
/// the library's output against recorded digests, whatever --seed is.
void run_canary(JsonWriter& j, const Options& o) {
  j.key("canary").begin_array();
  for (const std::uint64_t seed : o.canary_seeds) {
    double wall = 0.0;
    const Outputs out =
        run_entry(make_workload(o.workload, seed, Tier::kTiny, o.scratch), o.scratch, wall);
    j.begin_object().kv("seed", seed).key("digests");
    write_digests(j, out);
    j.end_object();
  }
  j.end_array();
}

bool same_scheme_digests(const Outputs& a, const Outputs& b) {
  const auto schemes = [](const Outputs& o) {
    std::vector<std::pair<std::string, std::string>> v;
    for (const auto& d : o.digests)
      if (d.first.rfind("scheme:", 0) == 0) v.push_back(d);
    return v;
  };
  return schemes(a) == schemes(b);
}

// ---------------------------------------------------------------- e2e ----

void mode_e2e(JsonWriter& j, const Options& o) {
  run_canary(j, o);
  const Workload w = make_workload(o.workload, o.seed, Tier::kBench, o.scratch);
  const std::uint64_t events = count_events(w);

  // Set-up: building one run's inputs, sampled before the first iteration
  // and after each one. Every pool lane builds at once, as the runs of an
  // execution do; a lane's sample averages the builds that fit in 0.1 s.
  // Samples span the run like the iterations do.
  std::vector<double> setup;
  photodtn::ThreadPool& pool = photodtn::ThreadPool::shared();
  const auto sample_setup = [&] {
    std::vector<double> lane(pool.concurrency());
    pool.parallel_chunks(lane.size(), [&](std::size_t l) {
      int builds = 0;
      const std::int64_t t0 = now_ns();
      do {
        RunInputs in;
        build_inputs(w.spec, w.spec.seed_base + l, in, nullptr, /*generate_trace=*/true);
        ++builds;
      } while (now_ns() - t0 < 100'000'000);
      lane[l] = static_cast<double>(now_ns() - t0) * 1e-9 / builds;
    });
    setup.insert(setup.end(), lane.begin(), lane.end());
  };
  sample_setup();

  // At least three iterations; then stop before one would end past --seconds.
  j.key("iterations").begin_array();
  const std::int64_t start = now_ns();
  for (int it = 1;; ++it) {
    double wall = 0.0;
    const Outputs out = run_entry(w, o.scratch, wall);
    j.begin_object().kv("wall_s", wall).key("digests");
    write_digests(j, out);
    j.end_object();
    sample_setup();
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (it >= 3 && elapsed * (it + 1) / it > o.seconds) break;
  }
  j.end_array();
  j.kv("events", events);
  j.kv_array("setup_s", setup);
  j.kv("peak_rss_mb", peak_rss_mb());
}

// -------------------------------------------------------------- trace ----

std::vector<const RunTrace*> views(const Replica& r) {
  std::vector<const RunTrace*> v;
  for (const auto& t : r.traces) v.push_back(t.get());
  return v;
}

double dtn_run_s(const Attribution& a) {
  double s = 0.0;
  for (const Layer l : {Layer::kDtnRun, Layer::kSchemeInit, Layer::kCenterContact,
                        Layer::kPeerContact, Layer::kPhotoTaken, Layer::kChurn,
                        Layer::kCheckpoint})
    s += a.self_s[static_cast<std::size_t>(l)];
  return s;
}

/// Thread-seconds the pool's lanes spent in runs (and, for the durable
/// workload, in each job's aggregation and sinks): the root spans of every
/// run's trace. The last trace is the driver's own.
double lane_busy_s(const Replica& rep) {
  double s = 0.0;
  for (std::size_t t = 0; t + 1 < rep.traces.size(); ++t)
    for (const Span& span : rep.traces[t]->spans())
      if (span.parent < 0) s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  return s;
}

/// Per-layer metrics of one traced replica (see WHERE_TIME_GOES.md).
std::map<std::string, double> layer_metrics(const Replica& rep) {
  const Attribution a = attribute(views(rep));
  const auto self = [&](Layer l) { return a.self_s[static_cast<std::size_t>(l)]; };
  std::map<std::string, double> m;

  std::uint64_t contacts = 0, photos = 0;
  photodtn::SimCounters c;
  for (const ReplicaRun& r : rep.runs) {
    contacts += r.contacts_in_trace;
    photos += r.photo_events;
    c.transfers += r.counters.transfers;
    c.failed_transfers += r.counters.failed_transfers;
    c.bytes_transferred += r.counters.bytes_transferred;
    c.drops += r.counters.drops;
    c.missed_contacts += r.counters.missed_contacts;
  }
  m["trace.load_s"] = self(Layer::kTraceLoad);
  m["trace.contacts"] = static_cast<double>(contacts);
  m["workload.gen_s"] = self(Layer::kWorkloadGen);
  m["workload.photos"] = static_cast<double>(photos);
  m["coverage.model_s"] = self(Layer::kCoverageModel);

  m["dtn.run_s"] = dtn_run_s(a);
  m["dtn.self_s"] = self(Layer::kDtnRun);
  m["dtn.transfers"] = static_cast<double>(c.transfers);
  const std::uint64_t attempts = c.transfers + c.failed_transfers;
  m["dtn.transfer_ok_ratio"] =
      attempts == 0 ? 0.0 : static_cast<double>(c.transfers) / static_cast<double>(attempts);
  m["dtn.mb_transferred"] = static_cast<double>(c.bytes_transferred) / 1e6;
  m["dtn.drops"] = static_cast<double>(c.drops);
  m["dtn.missed_contacts"] = static_cast<double>(c.missed_contacts);

  const std::vector<const RunTrace*> v = views(rep);
  const std::vector<double> contact_us =
      span_durations_us(v, {Layer::kCenterContact, Layer::kPeerContact});
  m["schemes.on_contact_s"] = self(Layer::kCenterContact) + self(Layer::kPeerContact);
  m["schemes.center_contact_s"] = self(Layer::kCenterContact);
  m["schemes.peer_contact_s"] = self(Layer::kPeerContact);
  m["schemes.on_contact_p50_us"] = percentile(contact_us, 0.50);
  m["schemes.on_contact_p99_us"] = percentile(contact_us, 0.99);
  m["schemes.on_contact_samples"] = static_cast<double>(contact_us.size());
  m["schemes.on_photo_taken_s"] = self(Layer::kPhotoTaken);
  m["schemes.churn_s"] = self(Layer::kChurn);
  m["schemes.init_s"] = self(Layer::kSchemeInit);

  photodtn::obs::MetricsSnapshot reg;
  std::uint64_t trace_events = 0, prov_events = 0;
  for (const photodtn::ExperimentResult& r : rep.outputs.results) {
    reg.merge(r.metrics);
    trace_events += r.trace_events.size();
    prov_events += r.prov_events.size();
  }
  const auto counter = [&](const char* name) {
    const auto it = reg.counters.find(name);
    return it == reg.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  for (const char* name :
       {"selection.gain_evals", "selection.reevals", "selection.commits",
        "scheme.gossip_records", "scheme.engine_syncs", "scheme.engine_loads",
        "scheme.engine_unloads", "scheme.poi_rebuilds", "scheme.cache_invalidations"})
    m[name] = counter(name);
  m["selection.reeval_ratio"] =
      ratio(counter("selection.reevals"), counter("selection.gain_evals"));
  m["scheme.gossip_accept_ratio"] =
      ratio(counter("scheme.gossip_accepted"), counter("scheme.gossip_records"));
  double pool_p50 = 0.0;
  if (const auto it = reg.histograms.find("selection.pool_size"); it != reg.histograms.end()) {
    // Upper bound of the bucket holding the median sample.
    const photodtn::obs::HistogramSnapshot& h = it->second;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      seen += h.counts[b];
      if (h.count > 0 && 2 * seen >= h.count) {
        pool_p50 = static_cast<double>(b < h.bounds.size() ? h.bounds[b] : h.max);
        break;
      }
    }
  }
  m["selection.pool_size_p50"] = pool_p50;

  const double lanes =
      static_cast<double>(photodtn::ThreadPool::shared().concurrency());
  m["sim.pool_lanes"] = lanes;
  m["sim.pool_busy_frac"] = lane_busy_s(rep) / (rep.wall_s * lanes);
  m["sim.self_s"] = self(Layer::kSimRun) + self(Layer::kSimAggregate);

  m["obs.trace_events"] = static_cast<double>(trace_events);
  m["obs.prov_events"] = static_cast<double>(prov_events);
  m["obs.serialize_s"] = self(Layer::kObsSerialize);
  m["obs.output_mb"] = static_cast<double>(rep.outputs.sink_bytes) / 1e6;
  m["obs.inrun_s"] = 0.0;

  m["persist.checkpoints"] = static_cast<double>(rep.outputs.checkpoints);
  m["persist.checkpoint_s"] = self(Layer::kCheckpoint);
  m["persist.checkpoint_mb"] = static_cast<double>(rep.outputs.checkpoint_bytes) / 1e6;

  m["traced_wall_s"] = rep.wall_s;
  // The run glue (sim.run's self time) is no module's work, so it counts as
  // unattributed along with any wall time outside every span.
  m["unattributed_frac"] = 1.0 - (a.covered_s - self(Layer::kSimRun)) / rep.wall_s;
  return m;
}

void mode_trace(JsonWriter& j, const Options& o) {
  run_canary(j, o);
  const Workload w = make_workload(o.workload, o.seed, Tier::kBench, o.scratch);
  std::vector<double> untraced, traced;
  std::vector<std::map<std::string, double>> layers;
  std::vector<double> obs_inrun;
  std::optional<Replica> first;  // its spans are written out at the end
  Outputs first_entry;
  bool replica_matches = true;
  const std::int64_t start = now_ns();
  do {
    // The entry point and the replica swap order every pair, so warm-up and
    // drift do not land on one side of trace_overhead_frac.
    double wall = 0.0;
    Outputs entry;
    Replica rep;
    if (traced.size() % 2 == 0) {
      entry = run_entry(w, o.scratch, wall);
      rep = run_replica(w, o.scratch, /*obs_metrics=*/true, /*obs_sinks=*/true);
    } else {
      rep = run_replica(w, o.scratch, /*obs_metrics=*/true, /*obs_sinks=*/true);
      entry = run_entry(w, o.scratch, wall);
    }
    untraced.push_back(wall);
    replica_matches = replica_matches && rep.outputs.digests == entry.digests;
    traced.push_back(rep.wall_s);
    layers.push_back(layer_metrics(rep));
    if (w.durable) {
      // The same replica with every obs sink off: its event-loop time is the
      // baseline for obs.inrun_s. Coverage output must not change.
      const Replica off = run_replica(w, o.scratch, false, false);
      replica_matches = replica_matches && same_scheme_digests(off.outputs, entry);
      obs_inrun.push_back(layers.back()["dtn.run_s"] -
                          layer_metrics(off).at("dtn.run_s"));
    }
    if (!first) {
      first.emplace(std::move(rep));
      first_entry = std::move(entry);
    }
    // Stop before the next pair would end past --seconds.
  } while (static_cast<double>(now_ns() - start) * 1e-9 * (traced.size() + 1) /
               static_cast<double>(traced.size()) <=
           o.seconds);

  // Report the layers of the traced run with the median wall time.
  std::vector<std::size_t> order(traced.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return traced[a] < traced[b]; });
  std::map<std::string, double> m = layers[order[order.size() / 2]];
  if (w.durable) m["obs.inrun_s"] = median(obs_inrun);
  m["trace_overhead_frac"] = median(traced) / median(untraced) - 1.0;

  j.kv("replica_matches_entry", replica_matches);
  j.key("digests");
  write_digests(j, first_entry);
  j.kv("pairs", static_cast<std::uint64_t>(traced.size()));
  j.key("layers").begin_object();
  for (const auto& [name, value] : m) j.kv(name, value);
  j.end_object();

  const std::string spans_path = o.scratch + "/" + w.name + ".spans.json";
  JsonWriter meta;
  meta.begin_object().kv("workload", w.name).kv("seed", o.seed).end_object();
  if (!write_spans_json(spans_path, views(*first), meta.str()))
    throw std::runtime_error("cannot write " + spans_path);
  j.kv("spans_file", spans_path);
}

// ------------------------------------------------------------- digest ----

void mode_digest(JsonWriter& j, const Options& o) {
  double wall = 0.0;
  const Tier tier = o.tier == "tiny" ? Tier::kTiny : Tier::kBench;
  const Workload w = make_workload(o.workload, o.seed, tier, o.scratch);
  const Outputs out = run_entry(w, o.scratch, wall);
  j.key("digests");
  write_digests(j, out);
}

// ---------------------------------------------------------- self-test ----

/// Tiny-tier checks that the benchmark itself is sound: the replica matches
/// the entry point, the decorator forwards every virtual, the spans account
/// for the wall time, and a durable run resumed through the decorator
/// finishes byte-identically.
void mode_self_test(JsonWriter& j, const Options& o) {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };

  for (const std::string& name : photodtn::simulation_scheme_names()) {
    auto plain = photodtn::make_scheme(name);
    const TracingScheme wrapped(photodtn::make_scheme(name), nullptr);
    expect(wrapped.name() == plain->name(), name + ": name() not forwarded");
    expect(wrapped.wants_unlimited_storage() == plain->wants_unlimited_storage(),
           name + ": wants_unlimited_storage() not forwarded");
    expect(wrapped.wants_unlimited_bandwidth() == plain->wants_unlimited_bandwidth(),
           name + ": wants_unlimited_bandwidth() not forwarded");
  }

  j.key("workloads").begin_array();
  for (const std::string& name : workload_names()) {
    for (const std::uint64_t seed : o.canary_seeds) {
      const Workload w = make_workload(name, seed, Tier::kTiny, o.scratch);
      double wall = 0.0;
      const Outputs entry = run_entry(w, o.scratch, wall);
      const Replica rep = run_replica(w, o.scratch, true, true);
      const std::string tag = name + " seed " + std::to_string(seed);
      expect(rep.outputs.digests == entry.digests, tag + ": replica digests differ");

      // Every callback the simulator made went through the decorator.
      std::uint64_t contacts = 0, photos = 0, crashes = 0, center = 0, peer = 0,
                    taken = 0, churn = 0;
      for (std::size_t r = 0; r < rep.runs.size(); ++r) {
        contacts += rep.runs[r].counters.contacts;
        photos += rep.runs[r].counters.photos_taken;
        crashes += rep.runs[r].counters.node_crashes;
        center += rep.traces[r]->count(Layer::kCenterContact);
        peer += rep.traces[r]->count(Layer::kPeerContact);
        taken += rep.traces[r]->count(Layer::kPhotoTaken);
        churn += rep.traces[r]->count(Layer::kChurn);
        expect(rep.traces[r]->count(Layer::kSchemeInit) == 1, tag + ": init not spanned once");
      }
      expect(center + peer == contacts, tag + ": on_contact spans != sim.contacts");
      expect(taken == photos, tag + ": on_photo_taken spans != sim.photos_taken");
      expect(churn >= crashes && churn <= 2 * crashes, tag + ": churn spans out of range");
      if (w.durable) {
        expect(crashes > 0, tag + ": durable workload saw no crash");
        expect(rep.outputs.checkpoints > 0, tag + ": durable workload took no checkpoint");
      }

      const std::map<std::string, double> m = layer_metrics(rep);
      expect(m.at("unattributed_frac") <= 0.05,
             tag + ": unattributed_frac " + std::to_string(m.at("unattributed_frac")));

      if (w.durable) {
        // Resume the first job from the replica's last snapshot through the
        // decorator (load_persist_state) and finish byte-identically. The
        // trace and provenance sinks stay off here: trace events restored
        // from a snapshot name strings interned by the simulator's recorder,
        // which are freed with the simulator before the sinks are serialized.
        Workload one = w;
        one.spec.runs = 1;
        const Replica full = run_replica(one, o.scratch, true, false);
        const std::string last = snapshot_path(o.scratch, one, /*replica=*/true, 0);
        const std::string snap = o.scratch + "/" + w.name + ".resume.snap";
        std::string data;
        expect(photodtn::persist::read_file(last, data) &&
                   photodtn::persist::atomic_write_file(snap, data),
               tag + ": cannot stage the resume snapshot");
        const Replica resumed = run_replica(one, o.scratch, true, false, snap);
        expect(resumed.outputs.digests == full.outputs.digests,
               tag + ": resumed run differs from the continuous one");
        // Its first checkpoint re-takes the restored position and is its last.
        std::string final_snapshot;
        expect(photodtn::persist::read_file(last, final_snapshot) && final_snapshot == data,
               tag + ": resumed run's snapshot differs from the one it resumed");
        const Replica off = run_replica(w, o.scratch, true, false);
        expect(same_scheme_digests(off.outputs, entry), tag + ": obs changed the output");
      }

      j.begin_object().kv("workload", name).kv("seed", seed).key("digests");
      write_digests(j, entry);
      j.kv("unattributed_frac", m.at("unattributed_frac"));
      j.end_object();
    }
  }
  j.end_array();
  j.key("failures").begin_array();
  for (const std::string& f : failures) j.value(f);
  j.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    JsonWriter j;
    j.begin_object().kv("mode", o.mode).kv("workload", o.workload).kv("seed", o.seed);
    write_build(j);
    if (o.mode == "e2e") mode_e2e(j, o);
    else if (o.mode == "trace") mode_trace(j, o);
    else if (o.mode == "digest") mode_digest(j, o);
    else if (o.mode == "self-test") mode_self_test(j, o);
    else throw std::invalid_argument("unknown --mode '" + o.mode + "'");
    j.end_object();
    std::cout << j.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
