#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/json.h"

namespace photodtn::obs {

namespace {

std::uint32_t find_or_add(std::vector<std::string>& names, std::string_view name) {
  PHOTODTN_CHECK_MSG(!name.empty(), "metric names must be non-empty");
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  PHOTODTN_CHECK_MSG(names.size() < MetricsRegistry::kInvalidIndex,
                     "metric registry overflow");
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

void check_bounds(const std::vector<std::uint64_t>& bounds) {
  PHOTODTN_CHECK_MSG(!bounds.empty(), "histogram bounds must be non-empty");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    PHOTODTN_CHECK_MSG(bounds[i - 1] < bounds[i],
                       "histogram bounds must be strictly increasing");
  }
}

}  // namespace

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0 && other.counts.empty()) return;
  if (counts.empty()) {
    *this = other;
    return;
  }
  if (bounds != other.bounds || counts.size() != other.counts.size()) {
    throw std::logic_error("HistogramSnapshot::merge: bucket layouts differ");
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  if (other.count > 0) {
    min = count > 0 ? std::min(min, other.min) : other.min;
    max = count > 0 ? std::max(max, other.max) : other.max;
  }
  count += other.count;
  sum += other.sum;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  runs += other.runs;
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

void MetricsSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("runs", runs);
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) w.kv(name, v);
  w.end_object();
  // Always empty: the photodtn-metrics/1 document keeps the key.
  w.key("gauges").begin_object().end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (std::uint64_t b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (std::uint64_t c : h.counts) w.value(c);
    w.end_array();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    if (h.count > 0) {
      w.kv("min", h.min);
      w.kv("max", h.max);
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

MetricsRegistry::Counter MetricsRegistry::counter(std::string_view name) {
  const std::uint32_t idx = find_or_add(counter_names_, name);
  if (idx == counter_values_.size()) counter_values_.push_back(0);
  return Counter{idx};
}

MetricsRegistry::Histogram MetricsRegistry::histogram(
    std::string_view name, std::vector<std::uint64_t> bounds) {
  check_bounds(bounds);
  const std::uint32_t idx = find_or_add(histogram_names_, name);
  if (idx == histograms_.size()) {
    HistogramSnapshot st;
    st.counts.assign(bounds.size() + 1, 0);
    st.bounds = std::move(bounds);
    histograms_.push_back(std::move(st));
  } else {
    PHOTODTN_CHECK_MSG(histograms_[idx].bounds == bounds,
                       "histogram re-registered with different bounds");
  }
  return Histogram{idx};
}

std::vector<std::uint64_t> MetricsRegistry::exp_bounds(std::uint64_t first,
                                                       double factor,
                                                       std::size_t n) {
  PHOTODTN_CHECK_MSG(n > 0 && factor > 1.0 && first > 0,
                     "exp_bounds needs n > 0, factor > 1, first > 0");
  std::vector<std::uint64_t> out;
  out.reserve(n);
  double v = static_cast<double>(first);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t b = static_cast<std::uint64_t>(std::llround(v));
    if (!out.empty() && b <= out.back()) b = out.back() + 1;
    out.push_back(b);
    v *= factor;
  }
  return out;
}

void MetricsRegistry::record(Histogram h, std::uint64_t v) {
  PHOTODTN_DCHECK_MSG(h.idx < histograms_.size(), "invalid histogram handle");
  HistogramSnapshot& st = histograms_[h.idx];
  std::size_t bucket = st.bounds.size();  // overflow by default
  for (std::size_t i = 0; i < st.bounds.size(); ++i) {
    if (v <= st.bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++st.counts[bucket];
  st.min = st.count > 0 ? std::min(st.min, v) : v;
  st.max = st.count > 0 ? std::max(st.max, v) : v;
  ++st.count;
  st.sum += v;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.runs = 1;
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    s.counters.emplace(counter_names_[i], counter_values_[i]);
  }
  for (std::size_t i = 0; i < histogram_names_.size(); ++i)
    s.histograms.emplace(histogram_names_[i], histograms_[i]);
  return s;
}

void MetricsRegistry::audit() const {
  auto check = [](bool ok, const char* what) {
    if (!ok) throw std::logic_error(std::string("MetricsRegistry::audit: ") + what);
  };
  auto unique_names = [&](const std::vector<std::string>& names) {
    std::unordered_set<std::string_view> seen;
    for (const std::string& n : names) {
      check(!n.empty(), "empty metric name");
      check(seen.insert(n).second, "duplicate metric name");
    }
  };
  unique_names(counter_names_);
  unique_names(histogram_names_);
  check(counter_names_.size() == counter_values_.size(), "counter arrays misaligned");
  check(histogram_names_.size() == histograms_.size(), "histogram arrays misaligned");
  for (const HistogramSnapshot& st : histograms_) {
    check(!st.bounds.empty(), "histogram with no bounds");
    check(st.counts.size() == st.bounds.size() + 1, "bucket count mismatch");
    for (std::size_t i = 1; i < st.bounds.size(); ++i) {
      check(st.bounds[i - 1] < st.bounds[i], "bounds not strictly increasing");
    }
    std::uint64_t total = 0;
    for (std::uint64_t c : st.counts) total += c;
    check(total == st.count, "bucket totals disagree with count");
    if (st.count > 0) {
      check(st.min <= st.max, "min above max");
      check(st.sum >= st.min && st.sum >= st.max, "sum below an observed value");
    } else {
      check(st.sum == 0, "empty histogram with non-zero sum");
    }
  }
}

}  // namespace photodtn::obs
