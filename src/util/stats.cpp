#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace photodtn {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n + m;
  mean_ += delta * m / total;
  m2_ += other.m2_ + delta * delta * n * m / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const noexcept {
  return n_ > 1 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double RunningStats::ci95_half_width() const noexcept { return 1.96 * stderr_mean(); }

void SeriesStats::add_series(const std::vector<double>& series) {
  if (cells_.empty() && runs_ == 0) cells_.resize(series.size());
  PHOTODTN_CHECK_MSG(series.size() == cells_.size(),
                     "series length mismatch when averaging runs");
  for (std::size_t i = 0; i < series.size(); ++i) cells_[i].add(series[i]);
  ++runs_;
}

std::vector<double> SeriesStats::means() const {
  std::vector<double> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) out[i] = cells_[i].mean();
  return out;
}

std::vector<double> SeriesStats::ci95() const {
  std::vector<double> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) out[i] = cells_[i].ci95_half_width();
  return out;
}

}  // namespace photodtn
