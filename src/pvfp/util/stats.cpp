#include "pvfp/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "pvfp/util/error.hpp"

namespace pvfp {

double percentile(std::span<const double> samples, double p) {
    std::vector<double> copy(samples.begin(), samples.end());
    return percentile_in_place(copy, p);
}

double percentile_in_place(std::vector<double>& samples, double p) {
    check_arg(!samples.empty(), "percentile: empty sample set");
    check_arg(p >= 0.0 && p <= 100.0, "percentile: p must be in [0,100]");
    const std::size_t n = samples.size();
    if (n == 1) return samples.front();

    // Type-7 estimator: virtual index h = (n-1) * p/100, interpolate
    // between floor(h) and floor(h)+1 order statistics.
    const double h = (static_cast<double>(n) - 1.0) * (p / 100.0);
    const auto lo_rank = static_cast<std::size_t>(h);
    const double frac = h - static_cast<double>(lo_rank);

    auto lo_it = samples.begin() + static_cast<std::ptrdiff_t>(lo_rank);
    std::nth_element(samples.begin(), lo_it, samples.end());
    const double lo_val = *lo_it;
    if (frac == 0.0 || lo_rank + 1 == n) return lo_val;
    // The (lo_rank+1)-th order statistic is the minimum of the tail that
    // nth_element left to the right of lo_it.
    const double hi_val =
        *std::min_element(lo_it + 1, samples.end());
    return lo_val + frac * (hi_val - lo_val);
}

double mean(std::span<const double> samples) {
    check_arg(!samples.empty(), "mean: empty sample set");
    double acc = 0.0;
    for (double x : samples) acc += x;
    return acc / static_cast<double>(samples.size());
}

double variance(std::span<const double> samples) {
    check_arg(samples.size() >= 2, "variance: need at least 2 samples");
    const double m = mean(samples);
    double acc = 0.0;
    for (double x : samples) acc += (x - m) * (x - m);
    return acc / static_cast<double>(samples.size() - 1);
}

double stddev(std::span<const double> samples) {
    return std::sqrt(variance(samples));
}

void RunningStats::add(double x) {
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

void RunningStats::merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto total = n_ + other.n_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) /
                           static_cast<double>(total);
    mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(total);
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ = total;
}

double RunningStats::mean() const {
    check_arg(n_ > 0, "RunningStats::mean: no samples");
    return mean_;
}

double RunningStats::variance() const {
    check_arg(n_ >= 2, "RunningStats::variance: need at least 2 samples");
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
    check_arg(n_ > 0, "RunningStats::min: no samples");
    return min_;
}

double RunningStats::max() const {
    check_arg(n_ > 0, "RunningStats::max: no samples");
    return max_;
}

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / bins),
      counts_(static_cast<std::size_t>(bins), 0) {
    check_arg(hi > lo, "Histogram: hi must exceed lo");
    check_arg(bins >= 1, "Histogram: need at least one bin");
}

int Histogram::bin_index(double x) const {
    if (x <= lo_) return 0;
    // NaN (no defined bin, and an undefined int cast) joins the top bin,
    // as in the suitability binning kernels.
    if (x >= hi_ || std::isnan(x)) return bin_count() - 1;
    const int i = static_cast<int>((x - lo_) / width_);
    return std::min(i, bin_count() - 1);
}

void Histogram::add(double x) { add(x, 1); }

void Histogram::add(double x, std::uint32_t n) {
    counts_[static_cast<std::size_t>(bin_index(x))] += n;
    total_ += n;
}

std::uint32_t Histogram::bin(int i) const {
    check_arg(i >= 0 && i < bin_count(), "Histogram::bin: index out of range");
    return counts_[static_cast<std::size_t>(i)];
}

double Histogram::bin_lower(int i) const {
    check_arg(i >= 0 && i <= bin_count(),
              "Histogram::bin_lower: index out of range");
    return lo_ + width_ * i;
}

double histogram_percentile(std::span<const std::uint32_t> counts,
                            std::uint64_t total, double lo, double width,
                            double hi, double p) {
    check_arg(total > 0, "histogram_percentile: empty histogram");
    check_arg(p >= 0.0 && p <= 100.0,
              "histogram_percentile: p must be in [0,100]");
    const double target = (p / 100.0) * static_cast<double>(total);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const std::uint32_t c = counts[i];
        if (static_cast<double>(cum) + c >= target) {
            const double lower = lo + width * static_cast<int>(i);
            if (c == 0) return lower;
            // Linear interpolation of the cumulative distribution within
            // the bin: fraction of the bin's mass below the target.
            const double frac =
                (target - static_cast<double>(cum)) / static_cast<double>(c);
            return lower + frac * width;
        }
        cum += c;
    }
    return hi;
}

double histogram_mean(std::span<const std::uint32_t> counts,
                      std::uint64_t total, double lo, double width) {
    check_arg(total > 0, "histogram_mean: empty histogram");
    double acc = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        acc += static_cast<double>(counts[i]) *
               (lo + width * static_cast<int>(i) + 0.5 * width);
    }
    return acc / static_cast<double>(total);
}

double Histogram::percentile(double p) const {
    return histogram_percentile(counts_, total_, lo_, width_, hi_, p);
}

double Histogram::approx_mean() const {
    return histogram_mean(counts_, total_, lo_, width_);
}

}  // namespace pvfp
