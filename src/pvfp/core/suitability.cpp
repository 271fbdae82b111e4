#include "pvfp/core/suitability.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "pvfp/obs/metrics.hpp"
#include "pvfp/solar/irradiance_kernels.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/stats.hpp"

namespace pvfp::core {

double temperature_correction_factor(double t_c,
                                     const SuitabilityOptions& options) {
    const double denom =
        options.derating_offset -
        options.derating_per_k * options.reference_temp_c;
    check_arg(denom > 0.0,
              "temperature_correction_factor: derating model degenerate at "
              "the reference temperature");
    const double num =
        options.derating_offset - options.derating_per_k * t_c;
    return std::max(0.0, num / denom);
}

SuitabilityResult compute_suitability(const solar::IrradianceField& field,
                                      const geo::PlacementArea& area,
                                      const SuitabilityOptions& options) {
    check_arg(field.width() == area.width && field.height() == area.height,
              "compute_suitability: field window does not match area");
    check_arg(options.percentile >= 0.0 && options.percentile <= 100.0,
              "compute_suitability: percentile out of [0,100]");
    check_arg(options.bins >= 8, "compute_suitability: too few bins");
    check_arg(options.step_stride >= 1,
              "compute_suitability: step_stride must be >= 1");
    check_arg(options.g_max > 0.0 && options.t_max_c > options.t_min_c,
              "compute_suitability: invalid histogram ranges");

    const int w = area.width;
    const int h = area.height;

    std::vector<std::pair<int, int>> cells;
    cells.reserve(static_cast<std::size_t>(area.valid_count));
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            if (area.valid(x, y)) cells.emplace_back(x, y);
    check_arg(!cells.empty(), "compute_suitability: no valid cells");

    // A cell-invariant step (no beam anywhere, no sky diffuse: the nights)
    // gives every cell G = reflected + svf * 0, the same bin pair for every
    // cell with a finite sky-view factor.  Such steps are binned once into
    // base counts every cell starts from; the rest of the sampled axis
    // (stride + daylight filter) is swept per cell.
    const bool fold =
        std::all_of(cells.begin(), cells.end(), [&](const auto& cell) {
            return std::isfinite(field.horizon().sky_view_factor_unchecked(
                cell.first, cell.second));
        });
    const auto [x_first, y_first] = cells.front();
    std::vector<long> swept;
    std::vector<double> swept_t_air;
    std::vector<double> folded_g;
    std::vector<double> folded_t_air;
    for (long s = 0; s < field.steps(); s += options.step_stride) {
        if (options.daylight_only && !field.is_daylight(s)) continue;
        if (fold && field.is_cell_invariant(s)) {
            folded_g.push_back(
                field.cell_irradiance_unchecked(x_first, y_first, s));
            folded_t_air.push_back(field.air_temperature(s));
        } else {
            swept.push_back(s);
            swept_t_air.push_back(field.air_temperature(s));
        }
    }
    const std::uint64_t total = swept.size() + folded_g.size();
    check_arg(total > 0, "compute_suitability: no sampled steps");

    // Bin axes of Histogram(0, g_max, bins) and Histogram(t_min, t_max,
    // bins): bin_series replicates Histogram::bin_index exactly, and the
    // percentile runs the estimator of Histogram::percentile over the
    // counts.  Bins are integers, so the result is the same at any SIMD
    // level and thread count.
    const double k_th = field.config().thermal_k;
    const solar::detail::BinAxis g_axis{0.0, options.g_max,
                                        (options.g_max - 0.0) / options.bins,
                                        options.bins};
    const solar::detail::BinAxis t_axis{
        options.t_min_c, options.t_max_c,
        (options.t_max_c - options.t_min_c) / options.bins, options.bins};
    const std::size_t bins = static_cast<std::size_t>(options.bins);
    const auto count = [](const std::int32_t* g_bins,
                          const std::int32_t* t_bins, std::size_t n,
                          std::uint32_t* g_counts, std::uint32_t* t_counts) {
        for (std::size_t k = 0; k < n; ++k) {
            ++g_counts[g_bins[k]];
            ++t_counts[t_bins[k]];
        }
    };
    const auto summarize = [&](std::span<const std::uint32_t> counts,
                               const solar::detail::BinAxis& a) {
        return options.use_mean
                   ? histogram_mean(counts, total, a.lo, a.width)
                   : histogram_percentile(counts, total, a.lo, a.width, a.hi,
                                          options.percentile);
    };

    std::vector<std::uint32_t> g_base(bins, 0);
    std::vector<std::uint32_t> t_base(bins, 0);
    {
        std::vector<std::int32_t> g_bins(folded_g.size());
        std::vector<std::int32_t> t_bins(folded_g.size());
        solar::detail::bin_series(folded_g.data(), folded_g.size(),
                                  folded_t_air.data(), k_th, g_axis, t_axis,
                                  g_bins.data(), t_bins.data());
        count(g_bins.data(), t_bins.data(), folded_g.size(), g_base.data(),
              t_base.data());
    }

    // The swept steps, packed once: every cell runs the footprint kernel
    // on its 1x1 footprint unit-stride over them, bins the series, counts
    // into scratch on top of the base counts, and writes its three
    // outputs.  Cells write disjoint outputs, so the loop parallelizes
    // deterministically.
    const solar::StepPack pack = field.pack_steps(swept);
    SuitabilityResult out;
    out.suitability = pvfp::Grid2D<double>(w, h, 0.0);
    out.g_percentile = pvfp::Grid2D<double>(w, h, 0.0);
    out.t_percentile = pvfp::Grid2D<double>(w, h, 0.0);
    struct CountScratch {
        std::vector<double> g;
        std::vector<std::int32_t> g_bins;
        std::vector<std::int32_t> t_bins;
        std::vector<std::uint32_t> g_counts;
        std::vector<std::uint32_t> t_counts;
    };
    ScratchPool<CountScratch> scratch_pool;
    parallel_for(
        0, static_cast<long>(cells.size()), 32, [&](long cb, long ce) {
            auto scratch = scratch_pool.acquire();
            scratch->g.resize(swept.size());
            scratch->g_bins.resize(swept.size());
            scratch->t_bins.resize(swept.size());
            auto& g_counts = scratch->g_counts;
            auto& t_counts = scratch->t_counts;
            for (long c = cb; c < ce; ++c) {
                const auto [x, y] = cells[static_cast<std::size_t>(c)];
                field.footprint_irradiance_packed_unchecked(
                    pack, x, y, 1, 1, solar::ModuleIrradiance::AnchorCell, 0,
                    pack.size(), scratch->g.data());
                solar::detail::bin_series(
                    scratch->g.data(), swept.size(), swept_t_air.data(),
                    k_th, g_axis, t_axis, scratch->g_bins.data(),
                    scratch->t_bins.data());
                g_counts = g_base;
                t_counts = t_base;
                count(scratch->g_bins.data(), scratch->t_bins.data(),
                      swept.size(), g_counts.data(), t_counts.data());
                const double gp = summarize(g_counts, g_axis);
                const double tp = summarize(t_counts, t_axis);
                out.g_percentile(x, y) = gp;
                out.t_percentile(x, y) = tp;
                double s_val = gp;
                if (options.temperature_correction)
                    s_val *= temperature_correction_factor(tp, options);
                out.suitability(x, y) = s_val;
            }
        });

    if (obs::enabled()) {
        obs::MetricsRegistry& reg = obs::registry();
        if (!folded_g.empty())
            reg.counter("core.suitability.folded_steps")
                .add(folded_g.size());
        if (!swept.empty())
            reg.counter("core.suitability.swept_cell_steps")
                .add(cells.size() * swept.size());
    }
    return out;
}

}  // namespace pvfp::core
