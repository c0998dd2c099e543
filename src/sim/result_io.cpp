#include "sim/result_io.h"

#include <cstddef>
#include <utility>

#include "persist/file_io.h"
#include "util/json.h"

namespace photodtn {

namespace {

void write_result(JsonWriter& w, const ExperimentResult& r) {
  w.begin_object();
  w.kv("scheme", r.scheme);
  w.kv("runs", static_cast<std::uint64_t>(r.point.runs()));
  w.kv_array("sample_times_s", r.sample_times);
  w.kv_array("point_mean", r.point.means());
  w.kv_array("point_ci95", r.point.ci95());
  w.kv_array("aspect_mean", r.aspect.means());
  w.kv_array("aspect_ci95", r.aspect.ci95());
  w.kv_array("delivered_mean", r.delivered.means());
  w.key("final");
  w.begin_object();
  w.kv("point_mean", r.final_point.mean());
  w.kv("point_ci95", r.final_point.ci95_half_width());
  w.kv("aspect_mean", r.final_aspect.mean());
  w.kv("aspect_ci95", r.final_aspect.ci95_half_width());
  w.kv("delivered_mean", r.final_delivered.mean());
  w.kv("transfers_mean", r.total_transfers.mean());
  w.kv("drops_mean", r.total_drops.mean());
  w.kv("interrupted_contacts_mean", r.total_interrupted_contacts.mean());
  w.kv("missed_contacts_mean", r.total_missed_contacts.mean());
  w.kv("node_crashes_mean", r.total_node_crashes.mean());
  w.kv("gossip_losses_mean", r.total_gossip_losses.mean());
  w.end_object();
  // Structured metrics block (obs runs only): merged per-run registry
  // snapshots. Omitted entirely when obs was off, so existing golden
  // comparison files are byte-identical with or without the obs layer.
  if (!r.metrics.empty()) {
    w.key("metrics");
    r.metrics.write_json(w);
  }
  w.end_object();
}

}  // namespace

std::string experiment_result_to_json(const ExperimentResult& result) {
  JsonWriter w;
  write_result(w, result);
  return std::move(w).str();
}

std::string comparison_to_json(std::span<const ExperimentResult> results) {
  JsonWriter w;
  w.begin_object();
  w.key("results");
  w.begin_array();
  for (const ExperimentResult& r : results) write_result(w, r);
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

bool write_comparison_json(const std::string& path,
                           std::span<const ExperimentResult> results) {
  return persist::checked_write_file(path, comparison_to_json(results) + "\n");
}

std::string metrics_to_json(std::span<const ExperimentResult> results) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "photodtn-metrics/1");
  w.key("results");
  w.begin_array();
  for (const ExperimentResult& r : results) {
    w.begin_object();
    w.kv("scheme", r.scheme);
    w.key("metrics");
    r.metrics.write_json(w);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

bool write_metrics_json(const std::string& path,
                        std::span<const ExperimentResult> results) {
  return persist::checked_write_file(path, metrics_to_json(results) + "\n");
}

namespace {

const char* kind_name(obs::Event::Kind k) {
  using Kind = obs::Event::Kind;
  switch (k) {
    case Kind::kCapture: return "capture";
    case Kind::kGossip: return "gossip";
    case Kind::kTransfer: return "transfer";
    case Kind::kMetadataBytes: return "metadata_bytes";
    case Kind::kDrop: return "drop";
    case Kind::kSprayDecrement: return "spray_decrement";
    case Kind::kDelivery: return "delivery";
    case Kind::kSelectCommit: return "select_commit";
    case Kind::kCrashWipe: return "crash_wipe";
    // Never in the provenance view; named for completeness.
    case Kind::kCrash: return "crash";
    case Kind::kReboot: return "reboot";
    case Kind::kLinkCut: return "linkcut";
    case Kind::kContact: return "contact";
    case Kind::kSample: return "sample";
    case Kind::kSelect: return "select";
    case Kind::kReallocate: return "reallocate";
  }
  return "unknown";
}

const char* outcome_name(obs::Event::Outcome o) {
  using Outcome = obs::Event::Outcome;
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kInterrupted: return "interrupted";
    case Outcome::kNoBudget: return "no_budget";
    case Outcome::kNoSpace: return "no_space";
    case Outcome::kDuplicate: return "duplicate";
    case Outcome::kMissing: return "missing";
  }
  return "unknown";
}

}  // namespace

std::string provenance_to_jsonl(const ExperimentResult& result) {
  // An event line has fixed keys and bounded values: the longest kind and
  // outcome names, three doubles of at most 24 characters ("%.17g"), three
  // uint64 of at most 20 and two int32 of at most 11 make 268 bytes with the
  // punctuation. Reserving that per line (plus one for the header) means
  // the buffer never reallocates; pages it never writes never become
  // resident.
  constexpr std::size_t kMaxLineBytes = 270;
  JsonWriter w;
  w.reserve((result.prov_events.size() + 1) * kMaxLineBytes);
  w.begin_object();
  w.kv("schema", "photodtn-provenance/1");
  w.kv("scheme", result.scheme);
  w.kv("runs", static_cast<std::uint64_t>(result.point.runs()));
  w.kv("final_point", result.final_point.mean());
  w.kv("final_aspect", result.final_aspect.mean());
  w.kv("delivered", result.final_delivered.mean());
  w.kv("events", static_cast<std::uint64_t>(result.prov_events.size()));
  w.end_object().end_record();
  std::uint64_t seq = 0;  // the event's index in the provenance view
  for (const obs::Event& ev : result.prov_events) {
    w.begin_object();
    w.kv("kind", kind_name(ev.kind));
    w.kv("outcome", outcome_name(ev.outcome));
    w.kv("ts", ev.ts_s);
    w.kv("photo", ev.photo);
    w.kv("node", static_cast<std::int64_t>(ev.node));
    w.kv("peer", static_cast<std::int64_t>(ev.peer));
    w.kv("bytes", ev.bytes);
    w.kv("value", ev.value);
    w.kv("aux", ev.aux);
    w.kv("seq", seq++);
    w.end_object().end_record();
  }
  return std::move(w).str();
}

bool write_provenance_jsonl(const std::string& path,
                            const ExperimentResult& result) {
  return persist::checked_write_file(path, provenance_to_jsonl(result));
}

}  // namespace photodtn
