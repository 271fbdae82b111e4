/// \file sky_kernels.cpp
/// Elementwise kernels of the batched sky precompute: plain scalar
/// loops, run at every SIMD level.  See sky_kernels.hpp for the bitwise
/// contract.

#include "pvfp/solar/sky_kernels.hpp"

#include <algorithm>

namespace pvfp::solar::detail {

void sky_geometry(const double* cos_h, const double* sin_h, std::size_t n,
                  const DayGeometry& day, double* up_clamped, double* north,
                  double* east) {
    for (std::size_t i = 0; i < n; ++i) {
        const double up = day.a + day.b * cos_h[i];
        up_clamped[i] = std::clamp(up, -1.0, 1.0);
        north[i] = day.c - day.d * cos_h[i];
        east[i] = day.neg_cos_delta * sin_h[i];
    }
}

void sky_transposition(const double* ghi, const double* dni,
                       const double* dhi, const double* sin_el,
                       const std::uint8_t* daylight, std::size_t n,
                       double eo, bool hay, double* beam_eq,
                       double* dhi_iso) {
    for (std::size_t i = 0; i < n; ++i) {
        if (!(ghi[i] > 0.0 || dhi[i] > 0.0)) {
            beam_eq[i] = 0.0;
            dhi_iso[i] = 0.0;
            continue;
        }
        double a = 0.0;
        if (hay) a = std::clamp(dni[i] / eo, 0.0, 1.0);
        double be = 0.0;
        if (daylight[i] != 0) {
            be = dni[i];
            if (hay && dhi[i] > 0.0) {
                const double guard = std::max(sin_el[i], 0.01745);
                be += dhi[i] * a / guard;
            }
        }
        beam_eq[i] = be;
        dhi_iso[i] =
            hay ? dhi[i] * (1.0 - (daylight[i] != 0 ? a : 0.0)) : dhi[i];
    }
}

}  // namespace pvfp::solar::detail
