#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace crsm {

namespace {

// Samples are millisecond doubles; the bounded histogram is integer
// microseconds. Sub-microsecond and negative values land in bucket 0.
std::uint64_t to_us(double ms) {
  const double us = ms * 1000.0;
  if (us <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(us));
}

double to_ms(double us) { return us / 1000.0; }

}  // namespace

LatencyStats::LatencyStats() = default;

LatencyStats::LatencyStats(std::size_t exact_cap) : exact_cap_(exact_cap) {}

LatencyStats::LatencyStats(const LatencyStats& other)
    : exact_cap_(other.exact_cap_),
      samples_(other.samples_),
      count_(other.count_),
      sum_(other.sum_),
      min_(other.min_),
      max_(other.max_) {
  if (other.hist_) {
    hist_ = std::make_unique<obs::LatencyHistogram>();
    hist_->merge(*other.hist_);
  }
}

LatencyStats& LatencyStats::operator=(const LatencyStats& other) {
  if (this == &other) return *this;
  LatencyStats copy(other);
  *this = std::move(copy);
  return *this;
}

LatencyStats::LatencyStats(LatencyStats&&) noexcept = default;
LatencyStats& LatencyStats::operator=(LatencyStats&&) noexcept = default;
LatencyStats::~LatencyStats() = default;

void LatencyStats::note_moments(double sample_ms) {
  if (count_ == 0) {
    min_ = max_ = sample_ms;
  } else {
    min_ = std::min(min_, sample_ms);
    max_ = std::max(max_, sample_ms);
  }
  ++count_;
  sum_ += sample_ms;
}

obs::LatencyHistogram& LatencyStats::ensure_hist() {
  if (!hist_) hist_ = std::make_unique<obs::LatencyHistogram>();
  return *hist_;
}

void LatencyStats::degrade() {
  auto& h = ensure_hist();
  for (double s : samples_) h.observe(to_us(s));
  samples_.clear();
  samples_.shrink_to_fit();
  sorted_.clear();
  sorted_.shrink_to_fit();
  sorted_valid_ = false;
}

void LatencyStats::add(double sample_ms) {
  note_moments(sample_ms);
  if (hist_) {
    hist_->observe(to_us(sample_ms));
    return;
  }
  samples_.push_back(sample_ms);
  sorted_valid_ = false;
  if (samples_.size() > exact_cap_) degrade();
}

void LatencyStats::merge(const LatencyStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;

  if (!hist_ && !other.hist_ && samples_.size() + other.samples_.size() <= exact_cap_) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_valid_ = false;
    return;
  }
  // Either side already degraded, or the union would blow the cap: fold
  // everything into the histogram.
  if (!hist_) degrade();
  auto& h = ensure_hist();
  for (double s : other.samples_) h.observe(to_us(s));
  if (other.hist_) h.merge(*other.hist_);
}

void LatencyStats::sort_if_needed() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double LatencyStats::mean() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

double LatencyStats::min() const { return count_ == 0 ? 0.0 : min_; }

double LatencyStats::max() const { return count_ == 0 ? 0.0 : max_; }

double LatencyStats::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile out of range");
  if (!hist_) {
    sort_if_needed();
    if (p == 0.0) return sorted_.front();
    const auto n = static_cast<double>(sorted_.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0) rank = 1;
    return sorted_[rank - 1];
  }
  // Degraded: bucket-accurate, but pin the ends to the exactly tracked
  // extremes so p0/p100 never show bucket rounding.
  if (p == 0.0) return min_;
  if (p == 100.0) return max_;
  return std::clamp(to_ms(hist_->percentile_us(p)), min_, max_);
}

std::vector<std::pair<double, double>> LatencyStats::cdf(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (count_ == 0 || points == 0) return out;
  out.reserve(points);
  const std::size_t n = count_;
  if (!hist_) {
    sort_if_needed();
    for (std::size_t i = 1; i <= points; ++i) {
      const std::size_t rank = std::max<std::size_t>(1, i * n / points);
      out.emplace_back(sorted_[rank - 1],
                       static_cast<double>(rank) / static_cast<double>(n));
    }
    return out;
  }
  double prev = min_;
  for (std::size_t i = 1; i <= points; ++i) {
    const std::size_t rank = std::max<std::size_t>(1, i * n / points);
    const double frac = static_cast<double>(rank) / static_cast<double>(n);
    // Monotone by construction; the final point reports the exact max so the
    // curve still ends at (max, 1.0).
    double v = rank == n ? max_
                         : std::clamp(to_ms(hist_->percentile_us(frac * 100.0)),
                                      min_, max_);
    v = std::max(v, prev);
    prev = v;
    out.emplace_back(v, frac);
  }
  return out;
}

double paper_median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of empty set");
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double max_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return *std::max_element(v.begin(), v.end());
}

}  // namespace crsm
