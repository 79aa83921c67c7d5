#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "support/diagnostics.h"

namespace phpf {

/// Flat value storage for every symbol of a program. All values are
/// held as doubles (integers are exactly representable far beyond any
/// subscript range we use); arrays are laid out column-major like
/// Fortran. The SPMD simulator lays out its per-processor lane banks
/// by this store's element index (elemIndexOf).
///
/// Element accesses bounds-check the flat index against the symbol's
/// declared size in Debug builds (PHPF_DASSERT) and compile to bare
/// loads/stores under NDEBUG.
class Store {
public:
    explicit Store(const Program& p);

    [[nodiscard]] double get(SymbolId s, std::int64_t flat = 0) const {
        checkFlat(s, flat);
        return data_[static_cast<size_t>(offset_[static_cast<size_t>(s)] + flat)];
    }
    void set(SymbolId s, std::int64_t flat, double v) {
        checkFlat(s, flat);
        data_[static_cast<size_t>(offset_[static_cast<size_t>(s)] + flat)] = v;
    }
    void setScalar(SymbolId s, double v) { set(s, 0, v); }

    /// Column-major flat index of `idx` (1-based per declared bounds).
    [[nodiscard]] std::int64_t flatten(const Program& p, SymbolId s,
                                       const std::vector<std::int64_t>& idx) const;

    [[nodiscard]] std::int64_t sizeOf(SymbolId s) const {
        return size_[static_cast<size_t>(s)];
    }

    /// Linear element index of (s, flat) in the flat data block. The
    /// SPMD simulator's lane banks address per-processor state by this
    /// index; it bounds-checks exactly like get/set, so an out-of-range
    /// subscript trips the same symbol-named assertion.
    [[nodiscard]] std::int64_t elemIndexOf(SymbolId s,
                                           std::int64_t flat = 0) const {
        checkFlat(s, flat);
        return offset_[static_cast<size_t>(s)] + flat;
    }
    /// Total elements across every symbol (the data block's length).
    [[nodiscard]] std::int64_t totalElems() const {
        return static_cast<std::int64_t>(data_.size());
    }
    /// Raw value block, indexed by elemIndexOf.
    [[nodiscard]] const double* dataRaw() const { return data_.data(); }
    /// Write element `elem` (an elemIndexOf value).
    void setElem(std::int64_t elem, double v) {
        PHPF_DASSERT(elem >= 0 && elem < totalElems(),
                     "store element " + std::to_string(elem) + " out of bounds");
        data_[static_cast<size_t>(elem)] = v;
    }

private:
    void checkFlat([[maybe_unused]] SymbolId s,
                   [[maybe_unused]] std::int64_t flat) const {
        PHPF_DASSERT(
            s >= 0 && static_cast<size_t>(s) < size_.size() && flat >= 0 &&
                flat < size_[static_cast<size_t>(s)],
            "store access out of bounds: " + describeAccess(s, flat));
    }
    /// Slow-path formatting for a failed bounds check (symbol name and
    /// declared size); out of line so checkFlat stays inlineable.
    [[nodiscard]] std::string describeAccess(SymbolId s,
                                             std::int64_t flat) const;

    const Program* prog_;
    std::vector<std::int64_t> offset_;
    std::vector<std::int64_t> size_;
    std::vector<double> data_;
};

}  // namespace phpf
