/// Tests for pvfp/util/stats: exact percentiles, streaming moments and the
/// fixed-range histograms behind the suitability metric.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "pvfp/util/error.hpp"
#include "pvfp/util/rng.hpp"
#include "pvfp/util/stats.hpp"

namespace pvfp {
namespace {

TEST(Percentile, SingleElement) {
    const std::vector<double> v{42.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 42.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 42.0);
}

TEST(Percentile, MedianOfTwoInterpolates) {
    const std::vector<double> v{10.0, 20.0};
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 15.0);
}

TEST(Percentile, MatchesClosedFormOnRamp) {
    // 0..100 linear ramp: type-7 percentile of p is exactly p.
    std::vector<double> v(101);
    std::iota(v.begin(), v.end(), 0.0);
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0})
        EXPECT_DOUBLE_EQ(percentile(v, p), p) << "p=" << p;
}

TEST(Percentile, UnsortedInputGivesSameResult) {
    std::vector<double> v{5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0};
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_DOUBLE_EQ(percentile(v, 75.0), percentile(sorted, 75.0));
}

TEST(Percentile, ExtremesAreMinAndMax) {
    Rng rng(3);
    std::vector<double> v;
    for (int i = 0; i < 1000; ++i) v.push_back(rng.uniform(-50.0, 150.0));
    EXPECT_DOUBLE_EQ(percentile(v, 0.0),
                     *std::min_element(v.begin(), v.end()));
    EXPECT_DOUBLE_EQ(percentile(v, 100.0),
                     *std::max_element(v.begin(), v.end()));
}

TEST(Percentile, RejectsEmptyAndBadP) {
    const std::vector<double> empty;
    const std::vector<double> one{1.0};
    EXPECT_THROW(percentile(empty, 50.0), InvalidArgument);
    EXPECT_THROW(percentile(one, -1.0), InvalidArgument);
    EXPECT_THROW(percentile(one, 101.0), InvalidArgument);
}

/// Property sweep: percentile is monotone in p.
class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, MonotoneInP) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<double> v;
    for (int i = 0; i < 257; ++i) v.push_back(rng.normal(100.0, 30.0));
    double prev = percentile(v, 0.0);
    for (int p = 5; p <= 100; p += 5) {
        const double cur = percentile(v, p);
        EXPECT_GE(cur, prev) << "p=" << p;
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Mean, SimpleAndThrowsOnEmpty) {
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    const std::vector<double> empty;
    EXPECT_THROW(mean(empty), InvalidArgument);
}

TEST(Variance, MatchesHandComputation) {
    const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    // mean 5, sum of squared dev = 32, n-1 = 7.
    EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, MatchesBatchOnRandomData) {
    Rng rng(17);
    std::vector<double> v;
    RunningStats rs;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.normal(10.0, 4.0);
        v.push_back(x);
        rs.add(x);
    }
    EXPECT_EQ(rs.count(), 5000);
    EXPECT_NEAR(rs.mean(), mean(v), 1e-9);
    EXPECT_NEAR(rs.variance(), variance(v), 1e-6);
    EXPECT_DOUBLE_EQ(rs.min(), *std::min_element(v.begin(), v.end()));
    EXPECT_DOUBLE_EQ(rs.max(), *std::max_element(v.begin(), v.end()));
}

TEST(RunningStats, MergeEqualsSinglePass) {
    Rng rng(23);
    RunningStats a;
    RunningStats b;
    RunningStats whole;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-5.0, 5.0);
        (i < 400 ? a : b).add(x);
        whole.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

/// Property sweep over randomized partitions: merging per-chunk
/// accumulators in any grouping or order matches the single-stream
/// reference.  This is the contract the parallel reductions lean on —
/// util/parallel merges per-thread RunningStats in chunk order, and the
/// chunking changes with the thread count.
class RunningStatsMergeProperty : public ::testing::TestWithParam<int> {
protected:
    static RunningStats accumulate(std::span<const double> xs) {
        RunningStats rs;
        for (double x : xs) rs.add(x);
        return rs;
    }

    static void expect_same(const RunningStats& got,
                            const RunningStats& want) {
        ASSERT_EQ(got.count(), want.count());
        EXPECT_NEAR(got.mean(), want.mean(), 1e-10);
        EXPECT_NEAR(got.variance(), want.variance(), 1e-7);
        EXPECT_DOUBLE_EQ(got.min(), want.min());
        EXPECT_DOUBLE_EQ(got.max(), want.max());
    }
};

TEST_P(RunningStatsMergeProperty, RandomPartitionMatchesSingleStream) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const int n = 200 + static_cast<int>(rng.uniform(0.0, 2000.0));
    std::vector<double> xs;
    RunningStats whole;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(250.0, 80.0);
        xs.push_back(x);
        whole.add(x);
    }
    // Split into a random number of contiguous chunks (some possibly
    // empty) and merge the per-chunk accumulators left to right.
    const int chunks = 1 + static_cast<int>(rng.uniform(0.0, 12.0));
    std::vector<std::size_t> cuts{0, xs.size()};
    for (int c = 1; c < chunks; ++c)
        cuts.push_back(static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(xs.size()))));
    std::sort(cuts.begin(), cuts.end());
    RunningStats merged;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
        merged.merge(accumulate(
            std::span<const double>(xs).subspan(cuts[c],
                                                cuts[c + 1] - cuts[c])));
    expect_same(merged, whole);
}

TEST_P(RunningStatsMergeProperty, CommutativeAndAssociative) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
    std::vector<double> xs;
    RunningStats whole;
    for (int i = 0; i < 900; ++i) {
        const double x = rng.uniform(-1000.0, 1000.0);
        xs.push_back(x);
        whole.add(x);
    }
    const std::span<const double> all(xs);
    const RunningStats a = accumulate(all.subspan(0, 200));
    const RunningStats b = accumulate(all.subspan(200, 300));
    const RunningStats c = accumulate(all.subspan(500, 400));

    // (a + b) + c  ==  a + (b + c)  ==  whole stream.
    RunningStats left = a;
    left.merge(b);
    left.merge(c);
    RunningStats bc = b;
    bc.merge(c);
    RunningStats right = a;
    right.merge(bc);
    expect_same(left, whole);
    expect_same(right, whole);

    // a + b  ==  b + a.
    RunningStats ab = a;
    ab.merge(b);
    RunningStats ba = b;
    ba.merge(a);
    expect_same(ba, ab);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunningStatsMergeProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(RunningStats, MergeWithEmptySides) {
    RunningStats empty;
    RunningStats some;
    some.add(1.0);
    some.add(3.0);
    RunningStats lhs = some;
    lhs.merge(empty);
    EXPECT_EQ(lhs.count(), 2);
    EXPECT_DOUBLE_EQ(lhs.mean(), 2.0);
    RunningStats rhs;
    rhs.merge(some);
    EXPECT_EQ(rhs.count(), 2);
    EXPECT_DOUBLE_EQ(rhs.mean(), 2.0);
}

TEST(RunningStats, ThrowsWhenEmpty) {
    RunningStats rs;
    EXPECT_THROW(rs.mean(), InvalidArgument);
    EXPECT_THROW(rs.min(), InvalidArgument);
    rs.add(1.0);
    EXPECT_THROW(rs.variance(), InvalidArgument);  // needs 2 samples
}

TEST(Histogram, RejectsBadConstruction) {
    EXPECT_THROW(Histogram(1.0, 1.0, 8), InvalidArgument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

TEST(Histogram, ClampsOutOfRangeIntoEdgeBins) {
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);
    h.add(15.0);
    EXPECT_EQ(h.bin(0), 1u);
    EXPECT_EQ(h.bin(9), 1u);
    EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, NanGoesToTopBin) {
    // NaN has no defined bin (and its int cast is undefined): it joins
    // the top bin, like the suitability binning kernels.
    Histogram h(0.0, 10.0, 10);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(h.bin_index(nan), 9);
    EXPECT_EQ(h.bin_index(-nan), 9);
    h.add(nan);
    EXPECT_EQ(h.bin(9), 1u);
    EXPECT_EQ(h.total(), 1u);
}

TEST(Histogram, PercentileApproximatesExactWithinBinWidth) {
    Rng rng(5);
    Histogram h(0.0, 1200.0, 256);
    std::vector<double> exact;
    for (int i = 0; i < 20000; ++i) {
        // Skewed-toward-zero distribution, like real irradiance.
        const double x = 1200.0 * std::pow(rng.uniform(), 2.0);
        h.add(x);
        exact.push_back(x);
    }
    const double bin_w = 1200.0 / 256.0;
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
        EXPECT_NEAR(h.percentile(p), percentile(exact, p), bin_w + 1e-9)
            << "p=" << p;
    }
}

TEST(Histogram, ApproxMeanCloseToExactMean) {
    Rng rng(6);
    Histogram h(-50.0, 50.0, 200);
    RunningStats rs;
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.normal(3.0, 10.0);
        h.add(x);
        rs.add(x);
    }
    EXPECT_NEAR(h.approx_mean(), rs.mean(), 0.5);  // within a bin width
}

TEST(Histogram, BulkAddMatchesRepeatedAdd) {
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    for (int i = 0; i < 7; ++i) a.add(3.3);
    b.add(3.3, 7);
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.bin(a.bin_index(3.3)), b.bin(b.bin_index(3.3)));
    EXPECT_DOUBLE_EQ(a.percentile(50.0), b.percentile(50.0));
}

TEST(Histogram, EmptyPercentileThrows) {
    Histogram h(0.0, 1.0, 4);
    EXPECT_THROW(h.percentile(50.0), InvalidArgument);
    EXPECT_THROW(h.approx_mean(), InvalidArgument);
}

TEST(Histogram, PercentileMonotoneInP) {
    Rng rng(9);
    Histogram h(0.0, 100.0, 64);
    for (int i = 0; i < 3000; ++i) h.add(rng.uniform(0.0, 100.0));
    double prev = h.percentile(0.0);
    for (int p = 2; p <= 100; p += 2) {
        const double cur = h.percentile(p);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

}  // namespace
}  // namespace pvfp
