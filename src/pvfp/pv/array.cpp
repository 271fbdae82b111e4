#include "pvfp/pv/array.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "pvfp/util/error.hpp"

namespace pvfp::pv {

void check_topology(const Topology& topology, int module_count) {
    check_arg(topology.series > 0 && topology.strings > 0,
              "Topology: series and strings must be positive");
    check_arg(topology.total() == module_count,
              "Topology: m*n must equal the number of modules");
}

PanelOperating aggregate_panel(std::span<const OperatingPoint> points,
                               const Topology& topology) {
    check_topology(topology, static_cast<int>(points.size()));

    PanelOperating panel;
    panel.strings.resize(static_cast<std::size_t>(topology.strings));

    double min_string_voltage = std::numeric_limits<double>::infinity();
    for (int j = 0; j < topology.strings; ++j) {
        StringOperating& str = panel.strings[static_cast<std::size_t>(j)];
        str.voltage_v = 0.0;
        str.current_a = std::numeric_limits<double>::infinity();
        for (int i = 0; i < topology.series; ++i) {
            const OperatingPoint& op =
                points[static_cast<std::size_t>(j * topology.series + i)];
            str.voltage_v += op.voltage_v;
            str.current_a = std::min(str.current_a, op.current_a);
            panel.ideal_power_w += op.power_w;
        }
        if (!std::isfinite(str.current_a)) str.current_a = 0.0;
        min_string_voltage = std::min(min_string_voltage, str.voltage_v);
        panel.current_a += str.current_a;
    }
    panel.voltage_v =
        std::isfinite(min_string_voltage) ? min_string_voltage : 0.0;
    panel.power_w = panel.voltage_v * panel.current_a;
    panel.mismatch_loss_w = std::max(0.0, panel.ideal_power_w - panel.power_w);
    return panel;
}

}  // namespace pvfp::pv
