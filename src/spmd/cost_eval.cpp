#include "spmd/cost_eval.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "analysis/const_prop.h"
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

/// Add `scale` x `e` to `out` if `e` is affine in scalar variables
/// (integer literals, variables, negation, sums and products with a
/// literal); false otherwise. A scalar read with a value in `consts`
/// (by Expr::id) adds that constant.
template <class Bound>
bool addAffine(const Expr* e, std::int64_t scale, Bound& out,
               const std::vector<std::optional<std::int64_t>>& consts) {
    switch (e->kind) {
        case ExprKind::IntLit: out.c0 += scale * e->ival; return true;
        case ExprKind::VarRef:
            if (static_cast<size_t>(e->id) < consts.size() &&
                consts[static_cast<size_t>(e->id)]) {
                out.c0 += scale * *consts[static_cast<size_t>(e->id)];
                return true;
            }
            for (auto& [sym, coeff] : out.terms)
                if (sym == e->sym) {
                    coeff += scale;
                    return true;
                }
            out.terms.emplace_back(e->sym, scale);
            return true;
        case ExprKind::Unary:
            return e->uop == UnaryOp::Neg &&
                   addAffine(e->args[0], -scale, out, consts);
        case ExprKind::Binary: {
            const Expr* a = e->args[0];
            const Expr* b = e->args[1];
            switch (e->bop) {
                case BinaryOp::Add:
                    return addAffine(a, scale, out, consts) &&
                           addAffine(b, scale, out, consts);
                case BinaryOp::Sub:
                    return addAffine(a, scale, out, consts) &&
                           addAffine(b, -scale, out, consts);
                case BinaryOp::Mul:
                    if (a->kind == ExprKind::IntLit)
                        return addAffine(b, scale * a->ival, out, consts);
                    if (b->kind == ExprKind::IntLit)
                        return addAffine(a, scale * b->ival, out, consts);
                    return false;
                default: return false;
            }
        }
        default: return false;
    }
}

/// Call `fn` on every scalar variable `e` reads.
template <class Fn>
void forEachVarRef(const Expr* e, const Fn& fn) {
    if (e->kind == ExprKind::VarRef) fn(e->sym);
    for (const Expr* a : e->args) forEachVarRef(a, fn);
}

CostBreakdown& totalsOf(CostBreakdown& acc) { return acc; }
CostBreakdown& totalsOf(DetailedCost& acc) { return acc.totals; }

void attributeStmt(CostBreakdown&, int, double) {}
void attributeStmt(DetailedCost& acc, int stmtId, double sec) {
    DetailedCost::Charge& c = acc.stmtCompute[static_cast<size_t>(stmtId)];
    c.sec += sec;
    c.attributed = true;
}
void attributeOp(CostBreakdown&, int, double) {}
void attributeOp(DetailedCost& acc, int opId, double sec) {
    DetailedCost::Charge& c = acc.opComm[static_cast<size_t>(opId)];
    c.sec += sec;
    c.events += 1;
    c.attributed = true;
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

void addFlops(const Expr* n, double& flops) {
    if (n->kind == ExprKind::Binary || n->kind == ExprKind::Unary)
        flops += 1.0;
    else if (n->kind == ExprKind::Call)
        flops += n->fn == Intrinsic::Sqrt || n->fn == Intrinsic::Exp ? 8.0
                                                                     : 1.0;
    for (const Expr* a : n->args) addFlops(a, flops);
}

}  // namespace

double flopsOf(const Expr* e) {
    double flops = 0.0;
    if (e != nullptr) addFlops(e, flops);
    return flops;
}

CostEvaluator::CostEvaluator(const SpmdLowering& low, const CostModel& cm,
                             const ShmCostModel* shm)
    : cm_(cm), shm_(shm), prog_(low.program()),
      opCount_(low.commOps().size()), index_(prog_.symbols.size(), 1) {
    const size_t stmts = static_cast<size_t>(prog_.stmtCount());
    items_.reserve(stmts);
    loops_.reserve(stmts);
    std::vector<int> loopOf(stmts, -1);
    std::vector<const Stmt*> nest;
    std::unique_ptr<ConstProp> cp;
    planBlock(low, prog_.top, nest, loopOf, cp);

    for (const CommOp& op : low.commOps()) {
        // Outermost first: enclosing[l - 1] is the loop at nesting level l.
        const std::vector<Stmt*> enclosing = prog_.enclosingLoops(op.atStmt);
        const size_t level = static_cast<size_t>(op.placementLevel);
        PHPF_ASSERT(level <= enclosing.size(),
                    "comm op placed deeper than its nest");
        Placement& at =
            level == 0 ? topOps_
                       : loops_[static_cast<size_t>(loopOf[static_cast<size_t>(
                                     enclosing[level - 1]->id)])]
                             .ops;
        place(low, op,
              std::span<Stmt* const>(enclosing).subspan(level), loopOf, at);
    }

    // Fold the leaves and the perfect nests above them, children first
    // (loops_ is in walk order, so an enclosing loop precedes its body).
    for (size_t l = loops_.size(); l-- > 0;) {
        LoopPlan& lp = loops_[l];
        if (!lp.ops.combines.empty() || !lp.ops.ops.empty()) continue;
        const bool leaf = std::none_of(
            items_.begin() + lp.first, items_.begin() + lp.end,
            [](const Item& it) { return it.loop >= 0; });
        if (leaf) {
            lp.foldDepth = 1;
            for (std::uint32_t i = lp.first; i < lp.end; ++i)
                lp.foldedSec += items_[i].sec;
            continue;
        }
        const int child = items_[lp.first].loop;
        if (lp.readsIndex || child < 0) continue;
        const LoopPlan& c = loops_[static_cast<size_t>(child)];
        if (c.end == lp.end && c.foldDepth > 0 && c.foldDepth < kMaxFoldDepth)
            lp.foldDepth = c.foldDepth + 1;
    }
    // Count how deep the scaled loops that are not folded nest.
    std::vector<int> depth(loops_.size(), 0);
    for (size_t l = 0; l < loops_.size(); ++l) {
        const LoopPlan& lp = loops_[l];
        if (lp.foldDepth > 0) continue;
        const int own = depth[l] + (lp.readsIndex ? 0 : 1);
        scopeDepth_ = std::max(scopeDepth_, own);
        for (std::uint32_t i = lp.first; i < lp.end; ++i)
            if (items_[i].loop >= 0)
                depth[static_cast<size_t>(items_[i].loop)] = own;
    }
}

void CostEvaluator::foldScalars(const SpmdLowering& low, const Expr* e,
                                const std::vector<const Stmt*>& nest,
                                std::unique_ptr<ConstProp>& cp) {
    if (e->kind == ExprKind::VarRef &&
        std::none_of(nest.begin(), nest.end(), [&](const Stmt* l) {
            return l->loopVar == e->sym;
        })) {
        if (cp == nullptr) {
            cp = std::make_unique<ConstProp>(low.ssa());
            constOfUse_.resize(static_cast<size_t>(prog_.exprCount()));
        }
        constOfUse_[static_cast<size_t>(e->id)] = cp->valueOfUse(e);
    }
    for (const Expr* a : e->args) foldScalars(low, a, nest, cp);
}

void CostEvaluator::planBlock(const SpmdLowering& low,
                              const std::vector<Stmt*>& block,
                              std::vector<const Stmt*>& nest,
                              std::vector<int>& loopOf,
                              std::unique_ptr<ConstProp>& cp) {
    for (const Stmt* s : block) {
        if (s->kind == StmtKind::Do) {
            const int l = static_cast<int>(loops_.size());
            loopOf[static_cast<size_t>(s->id)] = l;
            items_.push_back({l, -1, 0.0});
            LoopPlan lp;
            lp.var = s->loopVar;
            const Expr* exprs[] = {s->lb, s->ub, s->step};
            Bound* bounds[] = {&lp.lb, &lp.ub, &lp.step};
            for (int b = 0; b < 3; ++b) {
                Bound& bound = *bounds[b];
                if (exprs[b] == nullptr) {
                    bound.c0 = 1;
                    continue;
                }
                foldScalars(low, exprs[b], nest, cp);
                if (!addAffine(exprs[b], 1, bound, constOfUse_))
                    bound = Bound{0, {}, exprs[b]};
                // The enclosing loops whose index this bound reads iterate.
                forEachVarRef(exprs[b], [&](SymbolId sym) {
                    for (const Stmt* outer : nest)
                        if (outer->loopVar == sym)
                            loops_[static_cast<size_t>(
                                       loopOf[static_cast<size_t>(outer->id)])]
                                .readsIndex = true;
                });
            }
            lp.unitStep = lp.step.tree == nullptr && lp.step.terms.empty() &&
                          lp.step.c0 == 1;
            lp.first = static_cast<std::uint32_t>(items_.size());
            loops_.push_back(std::move(lp));
            nest.push_back(s);
            planBlock(low, s->body, nest, loopOf, cp);
            nest.pop_back();
            loops_[static_cast<size_t>(l)].end =
                static_cast<std::uint32_t>(items_.size());
            continue;
        }
        if (s->kind != StmtKind::Assign && s->kind != StmtKind::If) continue;
        // One instance's flops (+1 for the store/copy), divided by the
        // processors its executor set spreads the enclosing loops over.
        const RefDesc& desc = low.execOf(s).execDesc;
        double div = 1.0;
        for (const Stmt* l : nest)
            div *= static_cast<double>(divisorFor(desc, l));
        const double flops =
            flopsOf(s->kind == StmtKind::Assign ? s->rhs : s->cond) + 1.0;
        items_.push_back({-1, s->id, cm_.compute(flops) / div});
        if (s->kind == StmtKind::If) {
            planBlock(low, s->thenBody, nest, loopOf, cp);
            planBlock(low, s->elseBody, nest, loopOf, cp);
        }
    }
}

void CostEvaluator::place(const SpmdLowering& low, const CommOp& op,
                          std::span<Stmt* const> inside,
                          const std::vector<int>& loopOf,
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
    p.op = op.id;
    p.pattern = op.req.overall;
    for (size_t g = 0; g < op.req.dims.size(); ++g)
        if (op.req.dims[g].pattern != CommPattern::None)
            p.patternProcs *= grid.extent(static_cast<int>(g));
    // A single processor along the affected dims moves nothing.
    if (p.patternProcs <= 1 || op.req.overall == CommPattern::None) return;
    p.stages = CostModel::stagesFor(p.patternProcs);
    // Shared memory: many threads pull the same lines of a one-to-many
    // pattern; a moved line always has at least producer + consumer
    // touching it, so sub-line payloads ping-pong between >= 2 sharers.
    const bool manyReaders = p.pattern == CommPattern::Broadcast ||
                             p.pattern == CommPattern::AllGather ||
                             p.pattern == CommPattern::General;
    p.contention =
        ShmCostModel::contentionFor(manyReaders ? p.patternProcs : 1);
    p.sharers = manyReaders ? p.patternProcs : 2;

    // Only loops that index the communicated reference enlarge the
    // message; other loops reuse the same data and vectorization
    // deduplicates it. Serial (unpartitioned) dims count too.
    std::vector<AffineForm> subs;
    if (op.ref->kind == ExprKind::ArrayRef) {
        const AffineAnalyzer aff(prog_, &low.ssa());
        subs.reserve(op.ref->args.size());
        for (const Expr* sub : op.ref->args) subs.push_back(aff.analyze(sub));
    }
    for (const Stmt* l : inside) {
        auto indexedBy = [&](const AffineForm& f) {
            return f.affine ? f.coeffOf(l) != 0
                            : f.varLevel >= l->loopNestingLevel();
        };
        const bool indexes =
            std::any_of(op.srcDesc.dims.begin(), op.srcDesc.dims.end(),
                        [&](const RefDim& dim) {
                            return dim.partitioned() && indexedBy(dim.subscript);
                        }) ||
            std::any_of(subs.begin(), subs.end(), indexedBy);
        if (!indexes) continue;
        SizingLoop s{loopOf[static_cast<size_t>(l->id)],
                     static_cast<double>(divisorFor(op.srcDesc, l)), -1};
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

    if (!cm_.combineMessages) {
        p.key = static_cast<int>(at.ops.size());
        at.ops.push_back(std::move(p));
        return;
    }
    p.key = static_cast<int>(op.req.overall) * 1024 + p.patternProcs;
    const auto pos = std::upper_bound(
        at.ops.begin(), at.ops.end(), p.key,
        [](int key, const OpPlan& q) { return key < q.key; });
    at.ops.insert(pos, std::move(p));
}

CostBreakdown CostEvaluator::evaluate() {
    CostBreakdown out;
    chargeAt(topOps_, out);
    walkItems(0, static_cast<std::uint32_t>(items_.size()), out);
    return out;
}

DetailedCost CostEvaluator::evaluateDetailed() {
    // frames[d + 1] is the fresh accumulator of a scaled loop walked at
    // depth d; every entry is zero between uses.
    std::vector<DetailedCost> frames(static_cast<size_t>(scopeDepth_) + 1);
    for (DetailedCost& f : frames) {
        f.stmtCompute.resize(static_cast<size_t>(prog_.stmtCount()));
        f.opComm.resize(opCount_);
    }
    DetailedCost& out = frames.front();
    chargeAt(topOps_, out);
    walkItems(0, static_cast<std::uint32_t>(items_.size()), out);
    return std::move(out);
}

template <class Acc>
void CostEvaluator::walkItems(std::uint32_t first, std::uint32_t end,
                              Acc& out) {
    for (std::uint32_t i = first; i < end;) {
        const Item& it = items_[i];
        if (it.loop < 0) {
            totalsOf(out).computeSec += it.sec;
            attributeStmt(out, it.stmt, it.sec);
            ++i;
            continue;
        }
        const LoopPlan& loop = loops_[static_cast<size_t>(it.loop)];
        walkLoop(loop, out);
        i = loop.end;
    }
}

template <class Acc>
void CostEvaluator::walkLoop(const LoopPlan& loop, Acc& out) {
    if (loop.foldDepth > 0) {
        chargeFolded(loop, out);
        return;
    }
    const Range r = rangeOf(loop);
    if (r.trips <= 0) return;
    std::int64_t& index = index_[static_cast<size_t>(loop.var)];
    auto iteration = [&](std::int64_t iv, Acc& acc) {
        index = iv;
        chargeAt(loop.ops, acc);
        walkItems(loop.first, loop.end, acc);
        index = 1;
    };

    if (!loop.readsIndex) {
        if constexpr (std::is_same_v<Acc, DetailedCost>) {
            // evaluateDetailed's frames are contiguous, and the one after
            // `out` is all zero: this scope's fresh accumulator.
            Acc& one = (&out)[1];
            iteration(r.lb, one);
            scaleScope(out, one, loop, r.trips);
        } else {
            Acc one;
            iteration(r.lb, one);
            scaleInto(out, one, r.trips);
        }
        return;
    }
    for (std::int64_t i = 0, iv = r.lb; i < r.trips; ++i, iv += r.step)
        iteration(iv, out);
}

template <class Acc>
void CostEvaluator::chargeFolded(const LoopPlan& head, Acc& out) {
    // Each loop of the nest would charge one iteration into a fresh
    // accumulator and scale it by its trips, so the leaf's sums are
    // scaled by every loop's trips, innermost first.
    std::array<double, kMaxFoldDepth> trips{};
    const LoopPlan* loop = &head;
    for (int d = 0;; ++d) {
        const std::int64_t t = rangeOf(*loop).trips;
        if (t <= 0) return;
        trips[static_cast<size_t>(d)] = static_cast<double>(t);
        if (d + 1 == head.foldDepth) break;
        loop = &loops_[static_cast<size_t>(items_[loop->first].loop)];
    }
    auto scaled = [&](double x) {
        for (int d = head.foldDepth; d-- > 0;) x *= trips[static_cast<size_t>(d)];
        return x;
    };
    totalsOf(out).computeSec += scaled(loop->foldedSec);
    if constexpr (std::is_same_v<Acc, DetailedCost>)
        for (std::uint32_t i = loop->first; i < loop->end; ++i)
            attributeStmt(out, items_[i].stmt, scaled(items_[i].sec));
}

void CostEvaluator::scaleScope(DetailedCost& out, DetailedCost& one,
                               const LoopPlan& loop,
                               std::int64_t trips) const {
    scaleInto(out.totals, one.totals, trips);
    one.totals = {};
    const double t = static_cast<double>(trips);
    auto move = [&](std::vector<DetailedCost::Charge>& to,
                    std::vector<DetailedCost::Charge>& from, int id) {
        DetailedCost::Charge& c = from[static_cast<size_t>(id)];
        if (!c.attributed) return;
        DetailedCost::Charge& d = to[static_cast<size_t>(id)];
        d.sec += c.sec * t;
        d.events += c.events * trips;
        d.attributed = true;
        c = {};
    };
    auto moveOps = [&](const Placement& at) {
        for (const auto& [id, sec] : at.combines)
            move(out.opComm, one.opComm, id);
        for (const OpPlan& p : at.ops) move(out.opComm, one.opComm, p.op);
    };
    moveOps(loop.ops);
    for (std::uint32_t i = loop.first; i < loop.end; ++i) {
        const Item& it = items_[i];
        if (it.loop < 0)
            move(out.stmtCompute, one.stmtCompute, it.stmt);
        else
            moveOps(loops_[static_cast<size_t>(it.loop)].ops);
    }
}

template <class Acc>
void CostEvaluator::chargeAt(const Placement& at, Acc& out) {
    CostBreakdown& totals = totalsOf(out);
    // Reduction combines are always individual.
    for (const auto& [id, sec] : at.combines) {
        totals.commSec += sec;
        totals.messageEvents += 1;
        totals.commBytes += cm_.elemBytes;
        attributeOp(out, id, sec);
    }
    if (!cm_.combineMessages) {
        for (const OpPlan& p : at.ops) {
            const OpCharge c = chargeOf(p);
            totals.commSec += c.cost;
            totals.commBytes += c.bytes;
            totals.messageEvents += 1;
            attributeOp(out, p.op, c.cost);
        }
        return;
    }
    // Combine: messages of the same pattern/extent placed here share
    // one latency term; payloads concatenate.
    for (size_t first = 0, end = 0; first < at.ops.size(); first = end) {
        charges_.clear();
        double maxLat = 0.0;
        for (end = first; end < at.ops.size() && at.ops[end].key == at.ops[first].key;
             ++end) {
            charges_.push_back(chargeOf(at.ops[end]));
            maxLat = std::max(maxLat, charges_.back().latency);
        }
        double groupCost = maxLat;
        for (const OpCharge& c : charges_) groupCost += c.cost - c.latency;
        totals.commSec += groupCost;
        totals.messageEvents += 1;
        for (size_t i = 0; i < charges_.size(); ++i) {
            const OpCharge& c = charges_[i];
            totals.commBytes += c.bytes;
            attributeOp(out, at.ops[first + i].op,
                        (c.cost - c.latency) +
                            maxLat / static_cast<double>(charges_.size()));
        }
    }
}

CostEvaluator::OpCharge CostEvaluator::chargeOf(const OpPlan& p) const {
    double total = 1.0;     // distinct elements moved
    double srcLocal = 1.0;  // per-source-processor share of them
    for (const SizingLoop& s : p.loops) {
        const std::int64_t t =
            rangeOf(loops_[static_cast<size_t>(s.loop)]).trips;
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
    OpCharge c;
    switch (p.pattern) {
        case CommPattern::None: break;  // never placed
        case CommPattern::Shift:
            c.bytes = srcLocal * elemBytes;
            c.cost = cm_.shift(c.bytes) * p.shiftFraction;
            c.latency = cm_.alphaSec * p.shiftFraction;
            c.bytes *= p.shiftFraction;
            break;
        case CommPattern::Broadcast:
            c.bytes = srcLocal * elemBytes;
            c.cost = cm_.broadcastIn(p.stages, c.bytes);
            c.latency = cm_.broadcastIn(p.stages, 0.0);
            break;
        case CommPattern::AllGather:
        case CommPattern::Gather:  // cm_.gather is cm_.allGather
            c.bytes = total * elemBytes;
            c.cost = cm_.allGatherIn(p.stages, c.bytes);
            c.latency = cm_.allGatherIn(p.stages, 0.0);
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
                c.cost = cm_.broadcastIn(p.stages, c.bytes);
                c.latency = cm_.broadcastIn(p.stages, 0.0);
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
        c.cost = sm.barrier() + sm.sharedReadAt(p.contention, c.bytes) +
                 sm.falseSharing(c.bytes, p.sharers);
        c.latency = sm.barrier();
    }
    return c;
}

CostEvaluator::Range CostEvaluator::rangeOf(const LoopPlan& loop) const {
    // A sizing loop's bound may read the index of another loop inside
    // the placement (rare). That index is unbound while the op is
    // charged, and reads as 1.
    Range r;
    r.lb = valueOf(loop.lb);
    const std::int64_t ub = valueOf(loop.ub);
    if (loop.unitStep) {
        r.trips = ub >= r.lb ? ub - r.lb + 1 : 0;
        return r;
    }
    r.step = valueOf(loop.step);
    PHPF_ASSERT(r.step != 0, "zero loop step");
    if (r.step > 0)
        r.trips = ub >= r.lb ? (ub - r.lb) / r.step + 1 : 0;
    else
        r.trips = r.lb >= ub ? (r.lb - ub) / (-r.step) + 1 : 0;
    return r;
}

std::int64_t CostEvaluator::valueOf(const Bound& b) const {
    if (b.tree != nullptr) return evalInt(b.tree);
    std::int64_t v = b.c0;
    for (const auto& [sym, coeff] : b.terms)
        v += coeff * index_[static_cast<size_t>(sym)];
    return v;
}

std::int64_t CostEvaluator::evalInt(const Expr* e) const {
    switch (e->kind) {
        case ExprKind::IntLit: return e->ival;
        case ExprKind::RealLit: return static_cast<std::int64_t>(e->rval);
        case ExprKind::VarRef: {
            if (static_cast<size_t>(e->id) < constOfUse_.size() &&
                constOfUse_[static_cast<size_t>(e->id)])
                return *constOfUse_[static_cast<size_t>(e->id)];
            // Any other unbound scalar in a bound expression reads as 1
            // (the documented midpoint approximation).
            const size_t sym = static_cast<size_t>(e->sym);
            return sym < index_.size() ? index_[sym] : 1;
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
