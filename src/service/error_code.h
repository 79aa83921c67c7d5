#pragma once

#include <cstdint>

namespace phpf::service {

/// Machine-readable failure taxonomy of the compile service. Every
/// CompileResult carries one; `error` strings are for humans only and
/// never drive control flow. Every failure class is permanent: an
/// identical request fails the same way.
enum class ErrorCode : std::uint8_t {
    None = 0,       ///< success
    ParseError,     ///< front end rejected the source
    EmptyRequest,   ///< neither source nor builder set
    BuilderFailed,  ///< the IR builder callback threw
    Internal,       ///< pipeline invariant failure
    ProgramFault,   ///< the simulated program itself failed, e.g. an
                    ///< out-of-range subscript
};

/// Stable lower-case label ("program-fault") for logs and JSON rows.
[[nodiscard]] constexpr const char* errorCodeName(ErrorCode c) {
    switch (c) {
        case ErrorCode::None: return "none";
        case ErrorCode::ParseError: return "parse-error";
        case ErrorCode::EmptyRequest: return "empty-request";
        case ErrorCode::BuilderFailed: return "builder-failed";
        case ErrorCode::Internal: return "internal";
        case ErrorCode::ProgramFault: return "program-fault";
    }
    return "?";
}

}  // namespace phpf::service
