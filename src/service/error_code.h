#pragma once

#include <cstdint>

namespace phpf::service {

/// Machine-readable failure taxonomy of the compile service. Every
/// CompileResult carries one; `error` strings are for humans only and
/// never drive control flow. The transient/permanent split is the
/// retry policy: transient failures are worth re-running unchanged,
/// permanent ones will fail the same way every time.
enum class ErrorCode : std::uint8_t {
    None = 0,          ///< success
    ParseError,        ///< front end rejected the source (permanent)
    EmptyRequest,      ///< neither source nor builder set (permanent)
    BuilderFailed,     ///< the IR builder callback threw (permanent)
    DeadlineExceeded,  ///< the request's wall-clock budget ran out
    Cancelled,         ///< explicit cancellation (not a deadline)
    TransientFault,    ///< injected or environmental hiccup; retryable
    MemoryPressure,    ///< resources were shed out from under the job
    Internal,          ///< pipeline invariant failure (permanent)
    ProgramFault,      ///< the simulated program itself failed, e.g. an
                       ///< out-of-range subscript (permanent)
};

/// Is this failure worth an automatic retry-with-backoff?
[[nodiscard]] constexpr bool isTransient(ErrorCode c) {
    return c == ErrorCode::TransientFault || c == ErrorCode::MemoryPressure;
}

/// Stable lower-case label ("transient-fault") for logs and JSON rows.
[[nodiscard]] constexpr const char* errorCodeName(ErrorCode c) {
    switch (c) {
        case ErrorCode::None: return "none";
        case ErrorCode::ParseError: return "parse-error";
        case ErrorCode::EmptyRequest: return "empty-request";
        case ErrorCode::BuilderFailed: return "builder-failed";
        case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
        case ErrorCode::Cancelled: return "cancelled";
        case ErrorCode::TransientFault: return "transient-fault";
        case ErrorCode::MemoryPressure: return "memory-pressure";
        case ErrorCode::Internal: return "internal";
        case ErrorCode::ProgramFault: return "program-fault";
    }
    return "?";
}

}  // namespace phpf::service
