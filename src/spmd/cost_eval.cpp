#include "spmd/cost_eval.h"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.h"

namespace phpf {

namespace {

/// Number of processors the executor set of `desc` divides loop `l`'s
/// iterations across (1 if the loop doesn't traverse a partitioned dim
/// of `desc`).
std::int64_t divisorFor(const RefDesc& desc, const Stmt* l) {
    std::int64_t div = 1;
    for (const auto& dim : desc.dims) {
        if (!dim.partitioned()) continue;
        if (dim.subscript.affine && dim.subscript.coeffOf(l) != 0)
            div *= dim.dist.procs();
    }
    return std::max<std::int64_t>(div, 1);
}

/// True when the bounds of a loop nested anywhere in `block` read `var`.
bool boundsRead(const std::vector<Stmt*>& block, SymbolId var) {
    for (const Stmt* s : block) {
        if (s->kind == StmtKind::If) {
            if (boundsRead(s->thenBody, var) || boundsRead(s->elseBody, var))
                return true;
            continue;
        }
        if (s->kind != StmtKind::Do) continue;
        bool reads = false;
        for (const Expr* b : {s->lb, s->ub, s->step})
            Program::walkExpr(const_cast<Expr*>(b), [&](Expr* e) {
                reads = reads || (e->kind == ExprKind::VarRef && e->sym == var);
            });
        if (reads || boundsRead(s->body, var)) return true;
    }
    return false;
}

CostBreakdown& totalsOf(CostBreakdown& acc) { return acc; }
CostBreakdown& totalsOf(DetailedCost& acc) { return acc.totals; }

void attribute(CostBreakdown&, const Stmt*, double) {}
void attribute(DetailedCost& acc, const Stmt* s, double sec) {
    acc.stmtCompute[s] += sec;
}
void attribute(CostBreakdown&, int, double) {}
void attribute(DetailedCost& acc, int opId, double sec) {
    acc.opComm[opId] += sec;
    acc.opEvents[opId] += 1;
}

/// Add `one` iteration's charges `trips` times over.
void scaleInto(CostBreakdown& out, const CostBreakdown& one,
               std::int64_t trips) {
    const double t = static_cast<double>(trips);
    out.computeSec += one.computeSec * t;
    out.commSec += one.commSec * t;
    out.messageEvents += one.messageEvents * trips;
    out.commBytes += one.commBytes * t;
}
void scaleInto(DetailedCost& out, const DetailedCost& one,
               std::int64_t trips) {
    scaleInto(out.totals, one.totals, trips);
    const double t = static_cast<double>(trips);
    for (const auto& [st, v] : one.stmtCompute) out.stmtCompute[st] += v * t;
    for (const auto& [id, v] : one.opComm) out.opComm[id] += v * t;
    for (const auto& [id, n] : one.opEvents) out.opEvents[id] += n * trips;
}

}  // namespace

double flopsOf(const Expr* e) {
    double flops = 0.0;
    Program::walkExpr(const_cast<Expr*>(e), [&](Expr* n) {
        if (n->kind == ExprKind::Binary || n->kind == ExprKind::Unary)
            flops += 1.0;
        else if (n->kind == ExprKind::Call)
            flops += n->fn == Intrinsic::Sqrt || n->fn == Intrinsic::Exp ? 8.0
                                                                         : 1.0;
    });
    return flops;
}

CostEvaluator::CostEvaluator(const SpmdLowering& low, const CostModel& cm,
                             const ShmCostModel* shm)
    : cm_(cm), shm_(shm), prog_(low.program()),
      plan_(static_cast<size_t>(prog_.stmtCount())),
      index_(prog_.symbols.size()) {
    prog_.forEachStmt([&](const Stmt* s) {
        StmtPlan& sp = plan_[static_cast<size_t>(s->id)];
        if (s->kind == StmtKind::Do) {
            sp.readsIndex = boundsRead(s->body, s->loopVar);
            return;
        }
        if (s->kind != StmtKind::Assign && s->kind != StmtKind::If) return;
        // One instance's flops (+1 for the store/copy), divided by the
        // processors its executor set spreads the enclosing loops over.
        const RefDesc& desc = low.execOf(s).execDesc;
        double div = 1.0;
        for (const Stmt* l : prog_.enclosingLoops(s))
            div *= static_cast<double>(divisorFor(desc, l));
        const double flops =
            flopsOf(s->kind == StmtKind::Assign ? s->rhs : s->cond) + 1.0;
        sp.computeSec = cm_.compute(flops) / div;
    });
    for (const CommOp& op : low.commOps()) {
        Placement* at = &topOps_;
        if (op.placementLevel != 0) {
            const Stmt* loop =
                prog_.enclosingLoopAtLevel(op.atStmt, op.placementLevel);
            PHPF_ASSERT(loop != nullptr, "comm op placed deeper than its nest");
            at = &plan_[static_cast<size_t>(loop->id)].ops;
        }
        place(low, op, *at);
    }
}

void CostEvaluator::place(const SpmdLowering& low, const CommOp& op,
                          Placement& at) const {
    const ProcGrid& grid = low.dataMapping().grid();
    if (op.isReductionCombine) {
        int procs = 1;
        for (int g : op.combineGridDims) procs *= grid.extent(g);
        // Shared memory: the combine is a barrier plus log2(P)
        // combiner-tree stages over thread-private partials, not log2(P)
        // messages.
        if (procs > 1)
            at.combines.emplace_back(op.id,
                                     shm_ != nullptr
                                         ? shm_->combine(procs)
                                         : cm_.reduce(procs, cm_.elemBytes));
        return;
    }
    OpPlan p;
    p.op = &op;
    for (size_t g = 0; g < op.req.dims.size(); ++g)
        if (op.req.dims[g].pattern != CommPattern::None)
            p.patternProcs *= grid.extent(static_cast<int>(g));
    // A single processor along the affected dims moves nothing.
    if (p.patternProcs <= 1 || op.req.overall == CommPattern::None) return;

    // The message is vectorized over the loops inside its placement.
    std::vector<const Stmt*> inside;
    for (const Stmt* l : prog_.enclosingLoops(op.atStmt))
        if (l->loopNestingLevel() > op.placementLevel) inside.push_back(l);

    // Only loops that index the communicated reference enlarge the
    // message; other loops reuse the same data and vectorization
    // deduplicates it. Serial (unpartitioned) dims count too.
    std::vector<AffineForm> subs;
    if (op.ref->kind == ExprKind::ArrayRef) {
        const AffineAnalyzer aff(prog_, &low.ssa());
        for (const auto& dim : op.srcDesc.dims)
            if (dim.partitioned()) subs.push_back(dim.subscript);
        for (const Expr* sub : op.ref->args) subs.push_back(aff.analyze(sub));
    }
    for (const Stmt* l : inside) {
        const bool indexes = std::any_of(
            subs.begin(), subs.end(), [&](const AffineForm& f) {
                return f.affine ? f.coeffOf(l) != 0
                                : f.varLevel >= l->loopNestingLevel();
            });
        if (!indexes) continue;
        SizingLoop s{l, static_cast<double>(divisorFor(op.srcDesc, l)), -1};
        // Shifted dims: only the boundary strip moves.
        for (size_t g = 0; g < op.req.dims.size(); ++g) {
            const RefDim& sd = op.srcDesc.dims[g];
            if (op.req.dims[g].pattern == CommPattern::Shift &&
                sd.partitioned() && sd.subscript.affine &&
                sd.subscript.coeffOf(l) != 0)
                s.shiftClamp = std::abs(op.req.dims[g].shift);
        }
        p.loops.push_back(s);
    }

    auto traversedInside = [&](const AffineForm& f) {
        return std::any_of(inside.begin(), inside.end(),
                           [&](const Stmt* l) { return f.coeffOf(l) != 0; });
    };
    // A shift placed at instance level (the shifted dimension's loop is
    // at or outside the placement) only actually crosses a processor
    // boundary for |shift|/blockSize of the events; interior instances
    // find the neighbour element locally.
    double fraction = 1.0;
    for (size_t g = 0; g < op.req.dims.size(); ++g) {
        if (op.req.dims[g].pattern != CommPattern::Shift) continue;
        const RefDim& sd = op.srcDesc.dims[g];
        if (!sd.partitioned() || !sd.subscript.affine) continue;
        if (!traversedInside(sd.subscript) && sd.dist.blockSize() > 0)
            fraction = std::min(
                fraction, static_cast<double>(std::abs(op.req.dims[g].shift)) /
                              static_cast<double>(sd.dist.blockSize()));
    }
    p.shiftFraction = std::min(fraction, 1.0);
    // If the source's partitioned subscripts are invariant across the
    // loops inside, the data lives on one processor per event.
    for (const auto& dim : op.srcDesc.dims)
        if (dim.partitioned() &&
            (!dim.subscript.affine || traversedInside(dim.subscript)))
            p.srcSingle = false;

    const int key =
        cm_.combineMessages
            ? static_cast<int>(op.req.overall) * 1024 + p.patternProcs
            : static_cast<int>(at.groups.size());
    at.groups[key].push_back(p);
}

CostBreakdown CostEvaluator::evaluate() { return walk<CostBreakdown>(); }

DetailedCost CostEvaluator::evaluateDetailed() {
    return walk<DetailedCost>();
}

template <class Acc>
Acc CostEvaluator::walk() {
    Acc out;
    chargeAt(topOps_, out);
    walkBlock(prog_.top, out);
    return out;
}

template <class Acc>
void CostEvaluator::walkBlock(const std::vector<Stmt*>& block, Acc& out) {
    for (const Stmt* s : block) {
        if (s->kind == StmtKind::Do) {
            walkLoop(s, out);
            continue;
        }
        if (s->kind != StmtKind::Assign && s->kind != StmtKind::If) continue;
        const double sec = plan_[static_cast<size_t>(s->id)].computeSec;
        totalsOf(out).computeSec += sec;
        attribute(out, s, sec);
        if (s->kind == StmtKind::If) {
            walkBlock(s->thenBody, out);
            walkBlock(s->elseBody, out);
        }
    }
}

template <class Acc>
void CostEvaluator::walkLoop(const Stmt* loop, Acc& out) {
    std::int64_t lb = 0;
    const std::int64_t trips = tripsOf(loop, &lb);
    if (trips <= 0) return;
    const StmtPlan& plan = plan_[static_cast<size_t>(loop->id)];
    auto& index = index_[static_cast<size_t>(loop->loopVar)];
    auto iteration = [&](std::int64_t iv, Acc& acc) {
        index = iv;
        chargeAt(plan.ops, acc);
        walkBlock(loop->body, acc);
        index.reset();
    };

    if (!plan.readsIndex) {
        Acc one;
        iteration(lb, one);
        scaleInto(out, one, trips);
        return;
    }
    const std::int64_t step = loop->step != nullptr ? evalInt(loop->step) : 1;
    for (std::int64_t i = 0, iv = lb; i < trips; ++i, iv += step)
        iteration(iv, out);
}

template <class Acc>
void CostEvaluator::chargeAt(const Placement& at, Acc& out) {
    CostBreakdown& totals = totalsOf(out);
    // Reduction combines are always individual.
    for (const auto& [id, sec] : at.combines) {
        totals.commSec += sec;
        totals.messageEvents += 1;
        totals.commBytes += cm_.elemBytes;
        attribute(out, id, sec);
    }
    for (const auto& [key, group] : at.groups) {
        if (!cm_.combineMessages) {
            const OpCharge c = chargeOf(group[0]);
            totals.commSec += c.cost;
            totals.commBytes += c.bytes;
            totals.messageEvents += 1;
            attribute(out, group[0].op->id, c.cost);
            continue;
        }
        // Combine: messages of the same pattern/extent placed here share
        // one latency term; payloads concatenate.
        std::vector<OpCharge> charges;
        double maxLat = 0.0;
        for (const OpPlan& p : group) {
            charges.push_back(chargeOf(p));
            maxLat = std::max(maxLat, charges.back().latency);
        }
        double groupCost = maxLat;
        for (const OpCharge& c : charges) groupCost += c.cost - c.latency;
        totals.commSec += groupCost;
        totals.messageEvents += 1;
        for (size_t i = 0; i < group.size(); ++i) {
            const OpCharge& c = charges[i];
            totals.commBytes += c.bytes;
            attribute(out, group[i].op->id,
                      (c.cost - c.latency) +
                          maxLat / static_cast<double>(group.size()));
        }
    }
}

CostEvaluator::OpCharge CostEvaluator::chargeOf(const OpPlan& p) const {
    double total = 1.0;     // distinct elements moved
    double srcLocal = 1.0;  // per-source-processor share of them
    for (const SizingLoop& s : p.loops) {
        const std::int64_t t = tripsOf(s.loop);
        total *= static_cast<double>(t);
        const double local =
            s.shiftClamp >= 0
                ? static_cast<double>(std::min<std::int64_t>(
                      s.shiftClamp, std::max<std::int64_t>(t, 1)))
                : static_cast<double>(t) / s.divisor;
        srcLocal *= std::max(local, 1.0);
    }

    const double elemBytes = static_cast<double>(cm_.elemBytes);
    const int procs = p.patternProcs;
    const CommPattern pattern = p.op->req.overall;
    OpCharge c;
    switch (pattern) {
        case CommPattern::None: break;  // never placed
        case CommPattern::Shift:
            c.bytes = srcLocal * elemBytes;
            c.cost = cm_.shift(c.bytes) * p.shiftFraction;
            c.latency = cm_.alphaSec * p.shiftFraction;
            c.bytes *= p.shiftFraction;
            break;
        case CommPattern::Broadcast:
            c.bytes = srcLocal * elemBytes;
            c.cost = cm_.broadcast(procs, c.bytes);
            c.latency = cm_.broadcast(procs, 0.0);
            break;
        case CommPattern::AllGather:
        case CommPattern::Gather:  // cm_.gather is cm_.allGather
            c.bytes = total * elemBytes;
            c.cost = cm_.allGather(procs, c.bytes);
            c.latency = cm_.allGather(procs, 0.0);
            break;
        case CommPattern::PointToPoint:
            c.bytes = srcLocal * elemBytes;
            c.cost = cm_.pointToPoint(c.bytes);
            c.latency = cm_.alphaSec;
            break;
        case CommPattern::General:
            c.bytes = total * elemBytes;
            if (p.srcSingle) {
                // One source per event: a one-to-many broadcast (DGEFA's
                // pivot column / pivot index), not an all-to-all.
                c.cost = cm_.broadcast(procs, c.bytes);
                c.latency = cm_.broadcast(procs, 0.0);
            } else {
                // Irregular redistribution (e.g. transpose): every
                // processor exchanges its share with every other — α per
                // partner plus its slice of the volume.
                c.latency = static_cast<double>(procs - 1) * cm_.alphaSec;
                c.cost = c.latency + c.bytes / static_cast<double>(procs) *
                                         cm_.betaSecPerByte;
            }
            break;
    }
    if (shm_ != nullptr) {
        // Shared memory: the volume (`bytes`, shift boundary fractions
        // included) is target-independent — what changes is how moving
        // it costs. There is no per-message α; the op becomes "producers
        // reach a barrier, consumers pull the lines": one barrier, a
        // coherence read with bus contention when many threads pull the
        // same data, and a false-sharing penalty on sub-line payloads.
        const ShmCostModel& sm = *shm_;
        const bool manyReaders = pattern == CommPattern::Broadcast ||
                                 pattern == CommPattern::AllGather ||
                                 pattern == CommPattern::General;
        const int readers = manyReaders ? procs : 1;
        // A moved line always has at least producer + consumer touching
        // it, so sub-line payloads ping-pong between ≥ 2 sharers.
        const int sharers = manyReaders ? procs : 2;
        c.cost = sm.barrier() + sm.sharedRead(c.bytes, readers) +
                 sm.falseSharing(c.bytes, sharers);
        c.latency = sm.barrier();
    }
    return c;
}

std::int64_t CostEvaluator::tripsOf(const Stmt* loop,
                                    std::int64_t* lbOut) const {
    // A sizing loop's bound may read the index of another loop inside
    // the placement (rare). That index is unbound while the op is
    // charged, and evalInt reads an unbound scalar as 1.
    const std::int64_t lb = evalInt(loop->lb);
    const std::int64_t ub = evalInt(loop->ub);
    const std::int64_t step = loop->step != nullptr ? evalInt(loop->step) : 1;
    PHPF_ASSERT(step != 0, "zero loop step");
    if (lbOut != nullptr) *lbOut = lb;
    if (step > 0) return ub >= lb ? (ub - lb) / step + 1 : 0;
    return lb >= ub ? (lb - ub) / (-step) + 1 : 0;
}

std::int64_t CostEvaluator::evalInt(const Expr* e) const {
    switch (e->kind) {
        case ExprKind::IntLit: return e->ival;
        case ExprKind::RealLit: return static_cast<std::int64_t>(e->rval);
        case ExprKind::VarRef: {
            const size_t sym = static_cast<size_t>(e->sym);
            if (sym < index_.size() && index_[sym]) return *index_[sym];
            // Unbound scalar in a bound expression: fall back to the
            // midpoint assumption of 1 (documented approximation).
            return 1;
        }
        case ExprKind::Unary:
            return e->uop == UnaryOp::Neg ? -evalInt(e->args[0])
                                          : !evalInt(e->args[0]);
        case ExprKind::Binary: {
            const std::int64_t a = evalInt(e->args[0]);
            const std::int64_t b = evalInt(e->args[1]);
            switch (e->bop) {
                case BinaryOp::Add: return a + b;
                case BinaryOp::Sub: return a - b;
                case BinaryOp::Mul: return a * b;
                case BinaryOp::Div: return b != 0 ? a / b : 0;
                default: return 0;
            }
        }
        case ExprKind::Call:
            if (e->fn == Intrinsic::Max)
                return std::max(evalInt(e->args[0]), evalInt(e->args[1]));
            if (e->fn == Intrinsic::Min)
                return std::min(evalInt(e->args[0]), evalInt(e->args[1]));
            if (e->fn == Intrinsic::Abs) return std::abs(evalInt(e->args[0]));
            return 0;
        default: return 0;
    }
}

}  // namespace phpf
