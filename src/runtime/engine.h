#pragma once

#include <cstdint>
#include <string_view>

namespace phpf {

/// Execution engine of the SPMD simulator's per-statement eval phase.
/// Both engines share every other phase (deferred-write lockstep merge,
/// profiler hooks) and are bit-identical in results and metrics;
/// bytecode is simply faster.
enum class SimEngine : std::uint8_t {
    Interp,    ///< tree-walking reference engine
    Bytecode,  ///< register-bytecode VM over SoA lanes (default)
};

[[nodiscard]] inline const char* simEngineName(SimEngine e) {
    return e == SimEngine::Interp ? "interp" : "bytecode";
}

/// Parses "interp" | "bytecode"; returns false (and leaves `out`
/// untouched) on anything else.
[[nodiscard]] inline bool parseSimEngine(std::string_view s, SimEngine* out) {
    if (s == "interp") {
        *out = SimEngine::Interp;
        return true;
    }
    if (s == "bytecode") {
        *out = SimEngine::Bytecode;
        return true;
    }
    return false;
}

}  // namespace phpf
