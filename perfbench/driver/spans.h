// Benchmark-side tracing: spans recorded around calls into the library's
// public functions, a forwarding Scheme decorator that spans every scheme
// callback, and the wall-time attribution of spans to named layers.
//
// Every span lives in the RunTrace of the run that opened it. One run
// executes on one thread, so a RunTrace needs no locking and its spans nest
// properly; runs on different pool lanes overlap in time, which the
// attribution resolves by splitting each instant of wall time evenly among
// the layers active at it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dtn/scheme.h"

namespace perfbench {

/// The named layers, after the library's modules. Each span carries one.
enum class Layer : std::uint8_t {
  kSimRun,          // one run_single replica: the sim module's glue
  kSimAggregate,    // aggregate_results
  kTraceLoad,       // read_trace_file
  kWorkloadGen,     // generate_uniform_pois, PhotoGenerator::generate
  kCoverageModel,   // CoverageModel construction
  kDtnRun,          // Simulator construction + Simulator::run
  kSchemeInit,      // Scheme::init
  kCenterContact,   // Scheme::on_contact with the command center
  kPeerContact,     // Scheme::on_contact between participants
  kPhotoTaken,      // Scheme::on_photo_taken
  kChurn,           // Scheme::on_node_down / on_node_up
  kCheckpoint,      // persist::checkpoint + atomic_write_file
  kObsSerialize,    // metrics_to_json, chrome_trace_json, provenance_to_jsonl
  kCount
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

std::int64_t now_ns();

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same RunTrace, -1 for a root
  Layer layer = Layer::kSimRun;
};

/// The spans of one run (or of the driver's own top-level work).
class RunTrace {
 public:
  explicit RunTrace(std::uint32_t run_id) : run_id_(run_id) {}

  /// Closes the span it opened when it goes out of scope. A Scope on a null
  /// trace records nothing, so untraced code paths share the traced ones.
  class Scope {
   public:
    Scope(RunTrace* trace, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RunTrace* trace_;
    std::int32_t index_ = -1;
  };

  std::uint32_t run_id() const noexcept { return run_id_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Spans recorded per layer (completed or not).
  std::uint64_t count(Layer layer) const {
    return counts_[static_cast<std::size_t>(layer)];
  }

 private:
  std::uint32_t run_id_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  // innermost open span
  std::array<std::uint64_t, kLayerCount> counts_{};
};

/// Forwards every Scheme virtual to the wrapped scheme, recording a span
/// around each event callback. save/load_persist_state are forwarded without
/// a span of their own: they run only inside persist::checkpoint/restore,
/// whose span the caller records.
class TracingScheme final : public photodtn::Scheme {
 public:
  TracingScheme(std::unique_ptr<photodtn::Scheme> inner, RunTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string name() const override { return inner_->name(); }
  void init(photodtn::SimContext& ctx) override;
  void on_photo_taken(photodtn::SimContext& ctx, photodtn::NodeId node,
                      const photodtn::PhotoMeta& photo) override;
  void on_contact(photodtn::SimContext& ctx,
                  photodtn::ContactSession& session) override;
  void on_node_down(photodtn::SimContext& ctx, photodtn::NodeId node,
                    bool storage_wiped) override;
  void on_node_up(photodtn::SimContext& ctx, photodtn::NodeId node) override;
  bool wants_unlimited_storage() const override {
    return inner_->wants_unlimited_storage();
  }
  bool wants_unlimited_bandwidth() const override {
    return inner_->wants_unlimited_bandwidth();
  }
  void save_persist_state(photodtn::persist::StateWriter& w) const override {
    inner_->save_persist_state(w);
  }
  void load_persist_state(photodtn::persist::StateReader& r,
                          photodtn::SimContext& ctx) override {
    inner_->load_persist_state(r, ctx);
  }

 private:
  std::unique_ptr<photodtn::Scheme> inner_;
  RunTrace* trace_;
};

/// Wall time of a traced region split among layers.
struct Attribution {
  /// Wall-share seconds per layer: an instant when k spans are the
  /// innermost open span of their run contributes 1/k of it to each.
  std::array<double, kLayerCount> self_s{};
  /// Wall seconds during which at least one span was open (= sum of self_s).
  double covered_s = 0.0;
  /// Summed durations of every span of a layer, per layer, in thread-seconds.
  std::array<double, kLayerCount> inclusive_s{};
};

Attribution attribute(const std::vector<const RunTrace*>& traces);

/// Durations (microseconds) of every completed span of the given layers.
std::vector<double> span_durations_us(const std::vector<const RunTrace*>& traces,
                                      std::initializer_list<Layer> layers);

/// Writes every span as a Chrome trace-event document (one pid per run).
bool write_spans_json(const std::string& path,
                      const std::vector<const RunTrace*>& traces,
                      const std::string& metadata_json);

}  // namespace perfbench
