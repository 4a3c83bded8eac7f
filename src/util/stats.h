// Latency statistics: mean, percentiles, CDFs.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace crsm::obs {
class LatencyHistogram;
}  // namespace crsm::obs

namespace crsm {

// Accumulates latency samples (milliseconds) and answers the summary
// questions the paper's figures ask: average, 95th percentile, CDF series.
//
// Memory is bounded: up to `exact_cap` samples are retained exactly (the
// paper figures' regime — sorting-based percentiles and CDFs stay precise),
// after which the sample vector is folded into a fixed-size log-scale
// histogram (obs/metrics.h, ~2.5 KB, <= 6.25 % relative error on
// percentiles) and only running moments plus the histogram grow-free state
// are kept. Long-running nodes and the open-loop harness can therefore
// record forever; exact() reports which regime an instance is in, and
// samples() is only meaningful while exact.
class LatencyStats {
 public:
  static constexpr std::size_t kDefaultExactCap = 1 << 16;

  LatencyStats();
  explicit LatencyStats(std::size_t exact_cap);
  LatencyStats(const LatencyStats& other);
  LatencyStats& operator=(const LatencyStats& other);
  LatencyStats(LatencyStats&&) noexcept;
  LatencyStats& operator=(LatencyStats&&) noexcept;
  ~LatencyStats();

  void add(double sample_ms);
  void merge(const LatencyStats& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  // True while every sample is still held exactly (below the cap and never
  // merged with a degraded instance).
  [[nodiscard]] bool exact() const { return hist_ == nullptr; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // Nearest-rank percentile, p in [0, 100]. Exact while exact(); bounded by
  // the histogram bucket width (<= 6.25 % of the value) after.
  [[nodiscard]] double percentile(double p) const;

  // (latency, cumulative fraction in [0,1]) pairs at `points` evenly spaced
  // ranks, suitable for plotting the paper's CDF figures (Figs. 3, 4, 6).
  [[nodiscard]] std::vector<std::pair<double, double>> cdf(std::size_t points = 100) const;

  // The retained exact samples. Empty once degraded — check exact().
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void sort_if_needed() const;
  void note_moments(double sample_ms);
  // Folds samples_ into hist_ (allocating it) and drops the vector.
  void degrade();
  obs::LatencyHistogram& ensure_hist();

  std::size_t exact_cap_ = kDefaultExactCap;
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;

  // Running moments, maintained in both regimes (merge needs them even
  // while exact, and they keep the mean drift-free after degradation).
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;

  // Microsecond-resolution bounded histogram; allocated on first degrade.
  std::unique_ptr<obs::LatencyHistogram> hist_;
};

// Median as used throughout the paper's latency analysis (Section IV): the
// element at index floor(n/2) of the ascending sort. For a set that includes
// the zero self-distance this is exactly the cost of reaching a majority.
[[nodiscard]] double paper_median(std::vector<double> v);

[[nodiscard]] double mean_of(const std::vector<double>& v);
[[nodiscard]] double max_of(const std::vector<double>& v);

}  // namespace crsm
