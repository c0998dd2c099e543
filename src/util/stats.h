// Streaming statistics used by the experiment runner to average metric
// series across simulation runs and report confidence intervals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace photodtn {

/// Welford online mean/variance accumulator. Numerically stable; O(1) space.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than two samples.
  double stderr_mean() const noexcept;
  /// Half-width of the ~95% normal-approximation confidence interval.
  double ci95_half_width() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A column of RunningStats, one per sample index — used for averaging
/// time-series curves (same sampling grid) across runs.
class SeriesStats {
 public:
  explicit SeriesStats(std::size_t length = 0) : cells_(length) {}

  /// Adds one run's series. The series must have the configured length
  /// (the first call fixes the length if constructed empty).
  void add_series(const std::vector<double>& series);

  std::size_t length() const noexcept { return cells_.size(); }
  std::size_t runs() const noexcept { return runs_; }
  std::vector<double> means() const;
  std::vector<double> ci95() const;
  const RunningStats& at(std::size_t i) const { return cells_.at(i); }

 private:
  std::vector<RunningStats> cells_;
  std::size_t runs_ = 0;
};

}  // namespace photodtn
