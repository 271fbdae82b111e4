#include "pvfp/pv/module.hpp"

#include <utility>

#include "pvfp/util/error.hpp"

namespace pvfp::pv {

EmpiricalModuleModel::EmpiricalModuleModel(ModuleSpec spec)
    : spec_(std::move(spec)) {
    check_arg(spec_.width_m > 0.0 && spec_.height_m > 0.0,
              "EmpiricalModuleModel: module dimensions must be positive");
    check_arg(spec_.p_max_ref_w > 0.0 && spec_.vmp_ref_v > 0.0,
              "EmpiricalModuleModel: reference power/voltage must be "
              "positive");
    check_arg(spec_.cells_in_series > 0,
              "EmpiricalModuleModel: cells_in_series must be positive");
}

double EmpiricalModuleModel::power(double g, double tact_c) const {
    check_arg(g >= 0.0, "EmpiricalModuleModel::power: negative irradiance");
    return operating_point_unchecked(g, tact_c).power_w;
}

double EmpiricalModuleModel::voltage(double g, double tact_c) const {
    check_arg(g >= 0.0, "EmpiricalModuleModel::voltage: negative irradiance");
    return operating_point_unchecked(g, tact_c).voltage_v;
}

double EmpiricalModuleModel::current(double g, double tact_c) const {
    check_arg(g >= 0.0, "EmpiricalModuleModel::voltage: negative irradiance");
    return operating_point_unchecked(g, tact_c).current_a;
}

OperatingPoint EmpiricalModuleModel::operating_point(double g,
                                                     double tact_c) const {
    check_arg(g >= 0.0, "EmpiricalModuleModel::power: negative irradiance");
    return operating_point_unchecked(g, tact_c);
}

double EmpiricalModuleModel::actual_temperature(double t_air_c, double g,
                                                double thermal_k) {
    check_arg(g >= 0.0,
              "EmpiricalModuleModel::actual_temperature: negative G");
    check_arg(thermal_k >= 0.0,
              "EmpiricalModuleModel::actual_temperature: negative k");
    return t_air_c + thermal_k * g;
}

}  // namespace pvfp::pv
