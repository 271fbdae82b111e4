#pragma once
/// \file array.hpp
/// Series-parallel aggregation of module operating points into the panel
/// power (paper Section III-B1):
///
///   Vpanel = min_{j=1..n} ( sum_{i=1..m} Vmodule_ij )
///   Ipanel = sum_{j=1..n} ( min_{i=1..m} Imodule_ij )
///   Ppanel = Vpanel * Ipanel
///
/// The min over string currents is the series "weak module" bottleneck the
/// placement algorithm is designed to avoid; the min over string voltages
/// models parallel strings forced to the lowest string voltage.

#include <span>
#include <vector>

#include "pvfp/pv/module.hpp"

namespace pvfp::pv {

/// Series/parallel interconnection: n parallel strings of m modules each.
struct Topology {
    int series = 8;   ///< m: modules per string (paper uses m = 8)
    int strings = 2;  ///< n: parallel strings

    int total() const { return series * strings; }
};

/// Per-string aggregate.
struct StringOperating {
    double voltage_v = 0.0;  ///< sum of module voltages
    double current_a = 0.0;  ///< min of module currents (bottleneck)
};

/// Whole-panel aggregate plus diagnostics.
struct PanelOperating {
    double voltage_v = 0.0;
    double current_a = 0.0;
    double power_w = 0.0;
    /// Sum of the individual modules' maximum powers: what an ideal
    /// per-module-converter system would extract.
    double ideal_power_w = 0.0;
    /// ideal_power_w - power_w (>= 0): loss due to series/parallel
    /// mismatch, the quantity the topology-aware placement minimizes.
    double mismatch_loss_w = 0.0;
    std::vector<StringOperating> strings;
};

/// Aggregate module operating points in *series-first* order: index
/// j*m + i is module i of string j (the enumeration order of the paper's
/// placement loop).  \p points size must equal topology.total().  The
/// evaluators' core::fold_energy runs this arithmetic over a run of
/// samples at once, in the same order; this per-sample form is the
/// paper formula and the tests' oracle.
PanelOperating aggregate_panel(std::span<const OperatingPoint> points,
                               const Topology& topology);

/// Validate a topology against a module count; throws InvalidArgument on
/// m*n != N or non-positive values.
void check_topology(const Topology& topology, int module_count);

}  // namespace pvfp::pv
