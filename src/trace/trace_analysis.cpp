#include "trace/trace_analysis.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace photodtn {

namespace {

std::map<std::pair<NodeId, NodeId>, std::vector<double>> starts_by_pair(
    const ContactTrace& trace) {
  std::map<std::pair<NodeId, NodeId>, std::vector<double>> by_pair;
  for (const Contact& c : trace.contacts()) {
    const auto key = std::minmax(c.a, c.b);
    by_pair[{key.first, key.second}].push_back(c.start);
  }
  return by_pair;
}

}  // namespace

InterContactDiagnostics inter_contact_diagnostics(const ContactTrace& trace) {
  InterContactDiagnostics d;
  std::vector<double> normalized;  // gap / pair mean
  std::vector<double> raw;
  for (auto& [pair, starts] : starts_by_pair(trace)) {
    if (starts.size() < 3) continue;  // need >= 2 gaps for a meaningful mean
    std::sort(starts.begin(), starts.end());
    std::vector<double> gaps;
    for (std::size_t i = 1; i < starts.size(); ++i)
      gaps.push_back(starts[i] - starts[i - 1]);
    double mean = 0.0;
    for (const double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    if (mean <= 0.0) continue;
    for (const double g : gaps) {
      normalized.push_back(g / mean);
      raw.push_back(g);
    }
  }
  d.samples = normalized.size();
  if (normalized.empty()) return d;

  double mean = 0.0;
  for (const double g : raw) mean += g;
  mean /= static_cast<double>(raw.size());
  d.mean_s = mean;
  double var = 0.0;
  for (const double g : raw) var += (g - mean) * (g - mean);
  var /= static_cast<double>(raw.size() > 1 ? raw.size() - 1 : 1);
  d.cv = mean > 0.0 ? std::sqrt(var) / mean : 0.0;

  // KS distance of the normalized sample against Exp(1):
  // F(x) = 1 - exp(-x).
  std::sort(normalized.begin(), normalized.end());
  double ks = 0.0;
  const auto n = static_cast<double>(normalized.size());
  for (std::size_t i = 0; i < normalized.size(); ++i) {
    const double f = 1.0 - std::exp(-normalized[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    ks = std::max({ks, std::fabs(f - lo), std::fabs(f - hi)});
  }
  d.ks_distance = ks;
  return d;
}

}  // namespace photodtn
