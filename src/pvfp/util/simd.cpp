#include "pvfp/util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pvfp/util/error.hpp"

namespace pvfp {
namespace {

bool detect_avx2() {
#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

bool detect_avx512() {
#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)
    // The avx512 level also runs the AVX2 twins (simd.hpp).
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0 &&
           __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/// Resolve the default level from PVFP_SIMD and the CPU.  Explicit
/// requests are strict: "avx2"/"avx512" on a CPU without the level, or
/// an unrecognized value, throws instead of silently degrading — a CI
/// job that forces a level must fail loudly rather than test the wrong
/// kernels.
SimdLevel resolve_default() {
    const char* env = std::getenv("PVFP_SIMD");
    if (env == nullptr || std::strcmp(env, "auto") == 0) {
        if (cpu_supports_avx512()) return SimdLevel::Avx512;
        return cpu_supports_avx2() ? SimdLevel::Avx2 : SimdLevel::Scalar;
    }
    if (std::strcmp(env, "scalar") == 0 || std::strcmp(env, "off") == 0 ||
        std::strcmp(env, "0") == 0)
        return SimdLevel::Scalar;
    if (std::strcmp(env, "avx2") == 0) {
        check_arg(cpu_supports_avx2(),
                  "PVFP_SIMD=avx2 requested but the CPU has no AVX2");
        return SimdLevel::Avx2;
    }
    if (std::strcmp(env, "avx512") == 0) {
        check_arg(cpu_supports_avx512(),
                  "PVFP_SIMD=avx512 requested but the CPU has no "
                  "AVX-512F/VL");
        return SimdLevel::Avx512;
    }
    throw InvalidArgument(std::string("PVFP_SIMD: unrecognized value \"") +
                          env + "\" (use scalar|avx2|avx512|auto)");
}

/// Current level, encoded as int so the hot-path read is one relaxed
/// atomic load; -1 = not yet resolved.
std::atomic<int> g_level{-1};

}  // namespace

bool cpu_supports_avx2() {
    static const bool supported = detect_avx2();
    return supported;
}

bool cpu_supports_avx512() {
    static const bool supported = detect_avx512();
    return supported;
}

SimdLevel simd_level() {
    int v = g_level.load(std::memory_order_relaxed);
    if (v < 0) {
        v = static_cast<int>(resolve_default());
        g_level.store(v, std::memory_order_relaxed);
    }
    return static_cast<SimdLevel>(v);
}

void set_simd_level(SimdLevel level) {
    check_arg(level != SimdLevel::Avx2 || cpu_supports_avx2(),
              "set_simd_level: AVX2 requested but not supported by this CPU");
    check_arg(level != SimdLevel::Avx512 || cpu_supports_avx512(),
              "set_simd_level: AVX-512 requested but not supported by this "
              "CPU");
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void set_simd_level_auto() {
    g_level.store(static_cast<int>(resolve_default()),
                  std::memory_order_relaxed);
}

const char* simd_level_name(SimdLevel level) {
    switch (level) {
        case SimdLevel::Avx512: return "avx512";
        case SimdLevel::Avx2: return "avx2";
        default: return "scalar";
    }
}

}  // namespace pvfp
