#pragma once

#include "analysis/ssa.h"

namespace phpf {

/// Scalar privatizability (paper Section 2.2): a definition is
/// privatizable with respect to loop L when every value it produces is
/// consumed within the same iteration of L — i.e. all reached uses lie
/// inside L, the value never flows across L's back edge, and it never
/// escapes L through a merge outside the loop. (Copy-out privatization
/// is not modelled; live-out definitions are simply not privatizable,
/// matching phpf.)
[[nodiscard]] bool isPrivatizableAt(const SsaForm& ssa, int defId,
                                    const Stmt* loop);

/// Outermost loop with respect to which `defId` is privatizable, or
/// null. Privatizing at the outermost valid level exposes the most
/// parallelism, so the mapping pass starts here.
[[nodiscard]] const Stmt* outermostPrivatizationLoop(const SsaForm& ssa,
                                                     int defId);

/// Array privatizability (Section 3.1): inferred from the NEW clause of
/// an INDEPENDENT directive on `loop`.
[[nodiscard]] bool arrayPrivatizableAt(const Stmt* loop, SymbolId array);

}  // namespace phpf
