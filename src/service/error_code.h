#pragma once

#include <cstdint>

namespace phpf::service {

/// Machine-readable failure taxonomy of the compile service. Every
/// CompileResult carries one; `error` strings are for humans only and
/// never drive control flow.
enum class ErrorCode : std::uint8_t {
    None = 0,          ///< success
    ParseError,        ///< front end rejected the source (permanent)
    EmptyRequest,      ///< neither source nor builder set (permanent)
    BuilderFailed,     ///< the IR builder callback threw (permanent)
    DeadlineExceeded,  ///< the request's wall-clock budget ran out
    Cancelled,         ///< explicit cancellation (not a deadline)
    Internal,          ///< pipeline invariant failure (permanent)
    ProgramFault,      ///< the simulated program itself failed, e.g. an
                       ///< out-of-range subscript (permanent)
};

/// Stable lower-case label ("program-fault") for logs and JSON rows.
[[nodiscard]] constexpr const char* errorCodeName(ErrorCode c) {
    switch (c) {
        case ErrorCode::None: return "none";
        case ErrorCode::ParseError: return "parse-error";
        case ErrorCode::EmptyRequest: return "empty-request";
        case ErrorCode::BuilderFailed: return "builder-failed";
        case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
        case ErrorCode::Cancelled: return "cancelled";
        case ErrorCode::Internal: return "internal";
        case ErrorCode::ProgramFault: return "program-fault";
    }
    return "?";
}

}  // namespace phpf::service
