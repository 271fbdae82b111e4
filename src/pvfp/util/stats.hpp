#pragma once
/// \file stats.hpp
/// Descriptive statistics used by the suitability metric (Section III-C of
/// the paper): exact percentiles over sample vectors, streaming moments, and
/// fixed-range histograms for memory-bounded per-cell percentile estimation
/// over a full year of 15-minute samples.

#include <cstdint>
#include <span>
#include <vector>

namespace pvfp {

/// Exact \p p-th percentile (p in [0,100]) of \p samples using linear
/// interpolation between closest ranks (the "type 7" estimator used by
/// numpy.percentile).  Throws InvalidArgument on empty input or p outside
/// [0,100].  The input is copied; the caller's data is left untouched.
double percentile(std::span<const double> samples, double p);

/// Exact percentile that *consumes* (partially reorders) \p samples,
/// avoiding the copy.  Same estimator as percentile().
double percentile_in_place(std::vector<double>& samples, double p);

/// Arithmetic mean; throws InvalidArgument on empty input.
double mean(std::span<const double> samples);

/// Unbiased sample variance (n-1 denominator); needs n >= 2.
double variance(std::span<const double> samples);

/// Square root of variance().
double stddev(std::span<const double> samples);

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// Numerically stable for year-long 15-minute series (35k+ samples).
class RunningStats {
public:
    void add(double x);
    /// Merge another accumulator into this one (parallel reduction).
    void merge(const RunningStats& other);

    std::int64_t count() const { return n_; }
    /// Mean of the samples seen so far; throws when empty.
    double mean() const;
    /// Unbiased sample variance; throws when count() < 2.
    double variance() const;
    double stddev() const;
    /// Smallest/largest sample; throw when empty.
    double min() const;
    double max() const;

private:
    std::int64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// The percentile estimator of Histogram::percentile over raw bin counts:
/// bin i covers [lo + width*i, lo + width*(i+1)), \p total is the sum of
/// \p counts, and a target past the last bin returns \p hi.  Callers that
/// count into flat arrays (compute_suitability) use it directly.  Throws
/// InvalidArgument when \p total is 0 or p is outside [0,100].
double histogram_percentile(std::span<const std::uint32_t> counts,
                            std::uint64_t total, double lo, double width,
                            double hi, double p);

/// Histogram::approx_mean over raw bin counts (bin centers weighted by
/// count); throws InvalidArgument when \p total is 0.
double histogram_mean(std::span<const std::uint32_t> counts,
                      std::uint64_t total, double lo, double width);

/// Fixed-range histogram with uniform bins and 32-bit counts.
///
/// The floorplanner needs the 75th percentile of irradiance *per grid cell*
/// over ~35,040 time steps and ~10,000 cells; storing raw samples would take
/// gigabytes.  A 256-bin histogram over [0, 1200] W/m^2 resolves percentiles
/// to ~4.7 W/m^2, far below the variability that the metric exploits, at 1KB
/// per cell.  Values outside the range are clamped into the edge bins (they
/// are counted, not dropped).
class Histogram {
public:
    /// \p lo < \p hi, \p bins >= 1.
    Histogram(double lo, double hi, int bins);

    void add(double x);
    /// Add \p n occurrences of \p x at once.
    void add(double x, std::uint32_t n);

    /// Percentile via cumulative counts with linear interpolation inside the
    /// containing bin.  Throws when the histogram is empty.
    double percentile(double p) const;

    /// Approximate mean using bin centers; throws when empty.
    double approx_mean() const;

    std::uint64_t total() const { return total_; }
    int bin_count() const { return static_cast<int>(counts_.size()); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::uint32_t bin(int i) const;
    /// Lower edge of bin \p i.
    double bin_lower(int i) const;
    double bin_width() const { return width_; }

    /// Index of the bin receiving value \p x (after clamping; NaN goes
    /// to the top bin).
    int bin_index(double x) const;

private:
    double lo_;
    double hi_;
    double width_;
    std::uint64_t total_ = 0;
    std::vector<std::uint32_t> counts_;
};

}  // namespace pvfp
