#include "service/fingerprint.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>

#include "ir/printer.h"

namespace phpf::service {

std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed) {
    std::uint64_t h = seed;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

void appendDouble(std::string& out, const char* name, double v) {
    char buf[64];
    // %.17g is lossless for doubles, so two cost models differing in
    // any representable way get distinct keys.
    std::snprintf(buf, sizeof buf, "%s=%.17g;", name, v);
    out += buf;
}

void appendInt(std::string& out, const char* name, std::int64_t v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s=%" PRId64 ";", name, v);
    out += buf;
}

void appendBool(std::string& out, const char* name, bool v) {
    out += name;
    out += v ? "=1;" : "=0;";
}

}  // namespace

std::string canonicalOptionsKey(const TargetConfig& target,
                                const PassOptions& passes) {
    std::string k;
    k.reserve(256);
    // The target kind leads the key: mp and shm artifacts differ in
    // predicted tables, emitted text, and simulation accounting, so
    // they must never share a cache entry. The shared-memory machine
    // parameters join the key only under shm — an mp request's identity
    // must not depend on a model it never consults.
    k += "target=";
    k += targetKindName(target.targetKind);
    k += ';';
    if (target.targetKind == TargetKind::SharedMemory) {
        appendDouble(k, "shm_barrier", target.shmModel.barrierSec);
        appendDouble(k, "shm_stage", target.shmModel.combineStageSec);
        appendDouble(k, "shm_line", target.shmModel.lineSec);
        appendDouble(k, "shm_bw", target.shmModel.sharedBwSecPerByte);
        appendInt(k, "shm_line_bytes", target.shmModel.cacheLineBytes);
    }
    k += "grid=";
    for (size_t i = 0; i < target.gridExtents.size(); ++i) {
        if (i > 0) k += 'x';
        k += std::to_string(target.gridExtents[i]);
    }
    k += ';';
    appendDouble(k, "alpha", target.costModel.alphaSec);
    appendDouble(k, "beta", target.costModel.betaSecPerByte);
    appendDouble(k, "flop", target.costModel.flopSec);
    appendInt(k, "elem_bytes", target.costModel.elemBytes);
    appendBool(k, "combine", target.costModel.combineMessages);
    const MappingOptions& m = passes.mapping;
    appendBool(k, "priv", m.privatization);
    k += m.alignPolicy == MappingOptions::AlignPolicy::Selected
             ? "align=selected;"
             : "align=producer-only;";
    appendBool(k, "red_align", m.reductionAlignment);
    appendBool(k, "array_priv", m.arrayPrivatization);
    appendBool(k, "partial_priv", m.partialPrivatization);
    appendBool(k, "auto_array_priv", m.autoArrayPrivatization);
    appendBool(k, "cf_priv", m.controlFlowPrivatization);
    appendBool(k, "induction", passes.rewriteInduction);
    // The simulator engine and relaxed-merge mode are part of the
    // artifact identity: strict-mode engines are bit-identical, but a
    // cached interp artifact must not satisfy a bytecode request (the
    // report and benchmarks label the engine), and relaxed merges are
    // numerically distinct for non-integer SUM reductions.
    k += passes.simEngine == SimEngine::Bytecode ? "engine=bytecode;"
                                                 : "engine=interp;";
    appendBool(k, "relaxed", passes.relaxedMerge);
    return k;
}

std::string programFingerprint(const Program& p) {
    std::string text = printProgram(p);
    // Mini-HPF is case-insensitive (the frontend lowercases every
    // identifier), so case-fold before hashing: a builder-built program
    // and its parsed round-trip must share one fingerprint.
    for (char& c : text)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    char buf[48];
    std::snprintf(buf, sizeof buf, "p%016" PRIx64 "%016" PRIx64,
                  fnv1a64(text),
                  fnv1a64(text, 0x9e3779b97f4a7c15ull));
    return buf;
}

std::string requestKey(const Program& p, const TargetConfig& target,
                       const PassOptions& passes) {
    return programFingerprint(p) + "|" + canonicalOptionsKey(target, passes);
}

}  // namespace phpf::service
