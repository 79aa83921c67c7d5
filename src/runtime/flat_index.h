#pragma once

#include <cstdint>

#include "ir/program.h"
#include "support/diagnostics.h"

namespace phpf {

/// Column-major flattening of an ArrayRef's subscripts, shared between
/// the tree-walking Interpreter, the SPMD simulator and the bytecode
/// compiler so the layout exists exactly once. `evalIndex` maps a
/// subscript Expr* to its integer value; `outOfBounds(dim, value)`
/// (0-based dim) is called for a subscript outside its declared bounds
/// and must throw. The walk itself never allocates.
template <typename EvalIndex, typename OutOfBounds>
[[nodiscard]] std::int64_t flatIndexOfRef(const Program& prog,
                                          const Expr* arrayRef,
                                          EvalIndex&& evalIndex,
                                          OutOfBounds&& outOfBounds) {
    const Symbol& sym = prog.sym(arrayRef->sym);
    PHPF_ASSERT(static_cast<int>(arrayRef->args.size()) == sym.rank(),
                "subscript rank mismatch for " + sym.name);
    std::int64_t flat = 0;
    std::int64_t stride = 1;
    for (int d = 0; d < sym.rank(); ++d) {
        const std::int64_t v = evalIndex(arrayRef->args[static_cast<size_t>(d)]);
        const ArrayDim& dim = sym.dims[static_cast<size_t>(d)];
        if (v < dim.lb || v > dim.ub) outOfBounds(d, v);
        flat += (v - dim.lb) * stride;
        stride *= dim.extent();
    }
    return flat;
}

/// The per-dimension layout walk behind flatIndexOfRef, for compilers
/// that fold the strides instead of evaluating subscripts:
/// `fn(subscriptExpr, lb, ub, stride)` per declared dimension, column
/// major.
template <typename DimFn>
void forEachSubscriptStride(const Program& prog, const Expr* arrayRef,
                            DimFn&& fn) {
    const Symbol& sym = prog.sym(arrayRef->sym);
    PHPF_ASSERT(static_cast<int>(arrayRef->args.size()) == sym.rank(),
                "subscript rank mismatch for " + sym.name);
    std::int64_t stride = 1;
    for (int d = 0; d < sym.rank(); ++d) {
        const ArrayDim& dim = sym.dims[static_cast<size_t>(d)];
        fn(arrayRef->args[static_cast<size_t>(d)], dim.lb, dim.ub, stride);
        stride *= dim.extent();
    }
}

}  // namespace phpf
