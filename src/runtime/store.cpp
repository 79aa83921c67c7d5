#include "runtime/store.h"

#include "support/diagnostics.h"

namespace phpf {

Store::Store(const Program& p) : prog_(&p) {
    offset_.resize(p.symbols.size());
    size_.resize(p.symbols.size());
    std::int64_t total = 0;
    for (const auto& s : p.symbols) {
        offset_[static_cast<size_t>(s.id)] = total;
        size_[static_cast<size_t>(s.id)] = s.elementCount();
        total += s.elementCount();
    }
    data_.assign(static_cast<size_t>(total), 0.0);
}

std::string Store::describeAccess(SymbolId s, std::int64_t flat) const {
    if (s < 0 || static_cast<size_t>(s) >= size_.size())
        return "symbol id " + std::to_string(s) + " out of range (" +
               std::to_string(size_.size()) + " symbols)";
    return prog_->sym(s).name + "[flat " + std::to_string(flat) +
           "] with declared size " +
           std::to_string(size_[static_cast<size_t>(s)]);
}

std::int64_t Store::flatten(const Program& p, SymbolId s,
                            const std::vector<std::int64_t>& idx) const {
    const Symbol& sym = p.sym(s);
    PHPF_ASSERT(static_cast<int>(idx.size()) == sym.rank(),
                "subscript rank mismatch for " + sym.name);
    std::int64_t flat = 0;
    std::int64_t stride = 1;
    for (int d = 0; d < sym.rank(); ++d) {
        const ArrayDim& dim = sym.dims[static_cast<size_t>(d)];
        PHPF_ASSERT(idx[static_cast<size_t>(d)] >= dim.lb &&
                        idx[static_cast<size_t>(d)] <= dim.ub,
                    "subscript out of bounds for " + sym.name);
        flat += (idx[static_cast<size_t>(d)] - dim.lb) * stride;
        stride *= dim.extent();
    }
    return flat;
}

}  // namespace phpf
