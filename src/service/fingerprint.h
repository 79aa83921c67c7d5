#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "driver/options.h"

namespace phpf {
class Program;
}

namespace phpf::service {

/// 64-bit FNV-1a over `s`. `seed` defaults to the standard offset
/// basis; passing a different seed yields an independent hash stream
/// (the cache key uses two streams for a 128-bit program fingerprint).
[[nodiscard]] std::uint64_t fnv1a64(
    std::string_view s, std::uint64_t seed = 0xcbf29ce484222325ull);

/// Canonical, order-stable text form of a request's compile-relevant
/// options: every field of TargetConfig and PassOptions spelled out
/// explicitly in a fixed order, so defaulted and explicitly-set
/// requests produce identical keys. The key leads with the target kind
/// (mp/shm artifacts never share an entry) and includes the
/// shared-memory machine parameters only under shm — an mp request's
/// identity must not depend on a model it never consults.
[[nodiscard]] std::string canonicalOptionsKey(const TargetConfig& target,
                                              const PassOptions& passes);

/// Stable program fingerprint: hashes the case-folded canonical printed
/// mini-HPF form (printProgram round-trips through the parser, and the
/// language is case-insensitive), so source-text formatting, comments,
/// identifier case, and builder-vs-frontend provenance do not split
/// cache entries. Returns "p<hex16><hex16>" (two independent FNV-1a
/// streams — 128 bits against accidental collision).
[[nodiscard]] std::string programFingerprint(const Program& p);

/// Full content-addressed cache key of one compile request:
/// programFingerprint + "|" + canonicalOptionsKey.
[[nodiscard]] std::string requestKey(const Program& p,
                                     const TargetConfig& target,
                                     const PassOptions& passes);

}  // namespace phpf::service
