#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "dtn/simulator.h"
#include "persist/file_io.h"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSimRun: return "sim.run";
    case Layer::kSimAggregate: return "sim.aggregate";
    case Layer::kTraceLoad: return "trace.load";
    case Layer::kWorkloadGen: return "workload.gen";
    case Layer::kCoverageModel: return "coverage.model";
    case Layer::kDtnRun: return "dtn.run";
    case Layer::kSchemeInit: return "schemes.init";
    case Layer::kCenterContact: return "schemes.center_contact";
    case Layer::kPeerContact: return "schemes.peer_contact";
    case Layer::kPhotoTaken: return "schemes.on_photo_taken";
    case Layer::kChurn: return "schemes.churn";
    case Layer::kCheckpoint: return "persist.checkpoint";
    case Layer::kObsSerialize: return "obs.serialize";
    case Layer::kCount: break;
  }
  return "unknown";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RunTrace::Scope::Scope(RunTrace* trace, Layer layer) : trace_(trace) {
  if (trace_ == nullptr) return;
  index_ = static_cast<std::int32_t>(trace_->spans_.size());
  trace_->spans_.push_back(Span{now_ns(), 0, trace_->open_, layer});
  trace_->open_ = index_;
  ++trace_->counts_[static_cast<std::size_t>(layer)];
}

RunTrace::Scope::~Scope() {
  if (trace_ == nullptr) return;
  Span& s = trace_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  trace_->open_ = s.parent;
}

void TracingScheme::init(photodtn::SimContext& ctx) {
  RunTrace::Scope s(trace_, Layer::kSchemeInit);
  inner_->init(ctx);
}

void TracingScheme::on_photo_taken(photodtn::SimContext& ctx, photodtn::NodeId node,
                                   const photodtn::PhotoMeta& photo) {
  RunTrace::Scope s(trace_, Layer::kPhotoTaken);
  inner_->on_photo_taken(ctx, node, photo);
}

void TracingScheme::on_contact(photodtn::SimContext& ctx,
                               photodtn::ContactSession& session) {
  RunTrace::Scope s(trace_, session.involves_command_center() ? Layer::kCenterContact
                                                              : Layer::kPeerContact);
  inner_->on_contact(ctx, session);
}

void TracingScheme::on_node_down(photodtn::SimContext& ctx, photodtn::NodeId node,
                                 bool storage_wiped) {
  RunTrace::Scope s(trace_, Layer::kChurn);
  inner_->on_node_down(ctx, node, storage_wiped);
}

void TracingScheme::on_node_up(photodtn::SimContext& ctx, photodtn::NodeId node) {
  RunTrace::Scope s(trace_, Layer::kChurn);
  inner_->on_node_up(ctx, node);
}

namespace {

struct Segment {
  std::int64_t start_ns;
  std::int64_t end_ns;
  Layer layer;
};

/// The intervals during which each span is the innermost open span of its
/// run: the span minus its children. Spans are stored in opening order, so a
/// span's children follow it, each starting after the previous one ended.
void self_segments(const RunTrace& trace, std::vector<Segment>& out) {
  const std::vector<Span>& spans = trace.spans();
  std::vector<std::int64_t> cursor(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) cursor[i] = spans[i].start_ns;
  const auto emit = [&](std::size_t i, std::int64_t until) {
    if (until > cursor[i]) out.push_back({cursor[i], until, spans[i].layer});
  };
  for (std::size_t j = 0; j < spans.size(); ++j) {
    if (spans[j].parent < 0) continue;
    const auto p = static_cast<std::size_t>(spans[j].parent);
    emit(p, spans[j].start_ns);
    cursor[p] = spans[j].end_ns;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) emit(i, spans[i].end_ns);
}

}  // namespace

Attribution attribute(const std::vector<const RunTrace*>& traces) {
  Attribution out;
  std::vector<Segment> segments;
  for (const RunTrace* t : traces) {
    self_segments(*t, segments);
    for (const Span& s : t->spans())
      out.inclusive_s[static_cast<std::size_t>(s.layer)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  // Sweep every segment boundary; between two boundaries the open segments
  // share the elapsed wall time evenly.
  struct Edge {
    std::int64_t t;
    int delta;
    Layer layer;
  };
  std::vector<Edge> edges;
  edges.reserve(segments.size() * 2);
  for (const Segment& s : segments) {
    edges.push_back({s.start_ns, +1, s.layer});
    edges.push_back({s.end_ns, -1, s.layer});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  std::array<int, kLayerCount> open{};
  int total_open = 0;
  std::int64_t prev = edges.empty() ? 0 : edges.front().t;
  for (const Edge& e : edges) {
    if (total_open > 0 && e.t > prev) {
      const double dt = static_cast<double>(e.t - prev) * 1e-9;
      out.covered_s += dt;
      for (std::size_t l = 0; l < kLayerCount; ++l)
        if (open[l] > 0) out.self_s[l] += dt * open[l] / total_open;
    }
    prev = e.t;
    open[static_cast<std::size_t>(e.layer)] += e.delta;
    total_open += e.delta;
  }
  return out;
}

std::vector<double> span_durations_us(const std::vector<const RunTrace*>& traces,
                                      std::initializer_list<Layer> layers) {
  std::vector<double> out;
  for (const RunTrace* t : traces)
    for (const Span& s : t->spans())
      if (std::find(layers.begin(), layers.end(), s.layer) != layers.end())
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

bool write_spans_json(const std::string& path,
                      const std::vector<const RunTrace*>& traces,
                      const std::string& metadata_json) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const RunTrace* t : traces)
    for (const Span& s : t->spans()) origin = std::min(origin, s.start_ns);
  std::string out = "{\"metadata\":" + metadata_json + ",\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const RunTrace* t : traces) {
    for (const Span& s : t->spans()) {
      const int n = std::snprintf(
          buf, sizeof buf,
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":0,\"ts\":%.3f,"
          "\"dur\":%.3f}",
          first ? "" : ",", layer_name(s.layer), t->run_id(),
          static_cast<double>(s.start_ns - origin) * 1e-3,
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      out.append(buf, static_cast<std::size_t>(n));
      first = false;
    }
  }
  out += "\n]}\n";
  return photodtn::persist::checked_write_file(path, out);
}

}  // namespace perfbench
