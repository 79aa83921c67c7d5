#include "runtime/spmd_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>

#include "ir/printer.h"
#include "runtime/flat_index.h"
#include "runtime/vm.h"
#include "support/diagnostics.h"

namespace phpf {

namespace {

/// Calls fn(linearProc) for every processor in `gs`, last grid dimension
/// fastest (the enumeration order the executor/owner sets are defined
/// in). `fn` returns false to stop early; `coords` is caller-provided
/// scratch so the walk never allocates.
template <typename Fn>
void forEachGridProc(const GridSet& gs, const ProcGrid& grid,
                     std::vector<int>& coords, Fn&& fn) {
    const int rank = grid.rank();
    coords.assign(static_cast<size_t>(rank), 0);
    for (int d = 0; d < rank; ++d)
        if (gs.coord[static_cast<size_t>(d)] >= 0)
            coords[static_cast<size_t>(d)] = gs.coord[static_cast<size_t>(d)];
    for (;;) {
        if (!fn(grid.linearize(coords))) return;
        int d = rank - 1;
        for (; d >= 0; --d) {
            if (gs.coord[static_cast<size_t>(d)] >= 0) continue;  // pinned
            if (++coords[static_cast<size_t>(d)] < grid.extent(d)) break;
            coords[static_cast<size_t>(d)] = 0;
        }
        if (d < 0) return;
    }
}

/// VarRef/ArrayRef nodes of `e` read in value position (ArrayRef
/// subscripts resolve on the oracle and are never fetched).
void collectFetchRefs(const Expr* e, std::vector<const Expr*>& out) {
    switch (e->kind) {
        case ExprKind::IntLit:
        case ExprKind::RealLit:
            return;
        case ExprKind::VarRef:
        case ExprKind::ArrayRef:
            out.push_back(e);
            return;
        case ExprKind::Unary:
        case ExprKind::Binary:
        case ExprKind::Call:
            for (const Expr* a : e->args) collectFetchRefs(a, out);
            return;
    }
}

/// Every ArrayRef of `e`, operands before the node (innermost first).
void collectArrayRefs(const Expr* e, std::vector<const Expr*>& out) {
    for (const Expr* a : e->args) collectArrayRefs(a, out);
    if (e->kind == ExprKind::ArrayRef) out.push_back(e);
}

/// Index of the first zero byte in v[0..n), or -1 when every byte is
/// set. Validity bytes are strictly 0/1, so an 8-byte chunk of valid
/// lanes compares equal to kAllValid8 — the common fully-valid row is
/// n/8 compares with no per-byte scan.
constexpr std::uint64_t kAllValid8 = 0x0101010101010101ull;

inline int firstZeroByte(const char* v, int n) {
    int c = 0;
    for (; c + 8 <= n; c += 8) {
        std::uint64_t chunk;
        std::memcpy(&chunk, v + c, sizeof chunk);
        if (chunk == kAllValid8) continue;
        for (int l = c;; ++l)
            if (v[l] == 0) return l;
    }
    for (; c < n; ++c)
        if (v[c] == 0) return c;
    return -1;
}

}  // namespace

SpmdSimulator::SpmdSimulator(const SpmdLowering& low, int elemBytes,
                             SimEngine engine, bool relaxedMerge,
                             TargetKind targetKind)
    : low_(low), prog_(low.program()), oracle_(prog_),
      procCount_(low.dataMapping().grid().totalProcs()),
      elemBytes_(elemBytes), engine_(engine), relaxed_(relaxedMerge),
      targetKind_(targetKind) {
    procMetrics_.assign(static_cast<size_t>(procCount_), ProcSimMetrics{});
    stmtAcct_.assign(static_cast<size_t>(prog_.stmtCount()) *
                         static_cast<size_t>(procCount_ + 2),
                     0);

    allProcs_.resize(static_cast<size_t>(procCount_));
    std::iota(allProcs_.begin(), allProcs_.end(), 0);
    singleProcScratch_.assign(1, 0);
    flagsScratch_.assign(static_cast<size_t>(procCount_), 0);
    refFlat_.assign(static_cast<size_t>(prog_.exprCount()), 0);

    const size_t nOps = low_.commOps().size();
    opStamp_.assign(std::max<size_t>(nOps, 1), 0);
    eventsPerOp_.assign(nOps, 0);
    elemsPerOp_.assign(nOps, 0);
    opByRef_.assign(static_cast<size_t>(prog_.exprCount()), nullptr);
    opStmt_.assign(nOps, -1);
    opCtxVars_.resize(nOps);
    ctxMemo_.resize(nOps);
    ctxMemoSet_.assign(nOps, 0);
    for (const CommOp& op : low_.commOps()) {
        PHPF_ASSERT(op.id >= 0 && static_cast<size_t>(op.id) < nOps,
                    "comm op ids must be dense");
        if (!op.isReductionCombine)
            opByRef_[static_cast<size_t>(op.ref->id)] = &op;
        // The iteration-vector context of the op's events: loop indices
        // of the enclosing loops at or above the placement level.
        for (const Stmt* l : prog_.enclosingLoops(op.atStmt)) {
            if (l->loopNestingLevel() > op.placementLevel) break;
            opCtxVars_[static_cast<size_t>(op.id)].push_back(l->loopVar);
        }
        ctxMemo_[static_cast<size_t>(op.id)].assign(
            opCtxVars_[static_cast<size_t>(op.id)].size(), 0);
    }
    combineInit_.assign(nOps, 0.0);
    const size_t lanes = static_cast<size_t>(procCount_) *
                         static_cast<size_t>(oracle_.store().totalElems());
    soa_.assign(lanes, 0.0);
    soaValid_.assign(lanes, 0);
    iv_.assign(prog_.symbols.size(), 0);
    buildPlans();
    if (engine_ == SimEngine::Bytecode) {
        size_t maxSlots = 1;
        size_t maxForms = 1;
        for (const StmtPlan& p : plans_) {
            maxSlots = std::max(maxSlots, p.code.slots.size());
            maxForms = std::max(maxForms, p.strip.forms.size());
        }
        stripCur_.assign(maxForms, 0);
        stripDelta_.assign(maxForms, 0);
        subsScratch_.assign(
            static_cast<size_t>(low_.dataMapping().grid().rank()), 0);
        slotRow_.assign(maxSlots, 0);
        slotElem_.assign(maxSlots, 0);
        slotMissV_.assign(maxSlots, 0.0);
        slotMissSrc_.assign(maxSlots, -1);
        slotMissResolved_.assign(maxSlots, 0);
        slotAllValid_.assign(maxSlots, 0);
        oracleRegs_.assign(static_cast<size_t>(std::max(maxRegs_, 1)), 0.0);
        // SoA lane banks: one bank of procCount doubles per register.
        regs_.assign(static_cast<size_t>(std::max(maxRegs_, 1)) *
                         static_cast<size_t>(procCount_),
                     0.0);
    }
}

void SpmdSimulator::buildPlans() {
    plans_.resize(static_cast<size_t>(prog_.stmtCount()));
    for (const auto& r : low_.reductions()) {
        if (r.stmt != nullptr)
            plans_[static_cast<size_t>(r.stmt->id)].isReductionAcc = true;
        if (r.locStmt != nullptr)
            plans_[static_cast<size_t>(r.locStmt->id)].isReductionAcc = true;
    }
    prog_.forEachStmt([&](const Stmt* s) {
        StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
        switch (s->kind) {
            case StmtKind::Assign:
            case StmtKind::If: {
                plan.exec = &low_.execOf(s);
                collectFetchRefs(s->kind == StmtKind::Assign ? s->rhs
                                                             : s->cond,
                                 plan.fetchRefs);
                for (const Expr* r : plan.fetchRefs) {
                    if (const CommOp* op = opByRef_[static_cast<size_t>(r->id)])
                        opStmt_[static_cast<size_t>(op->id)] = s->id;
                    for (const Expr* sub : r->args)
                        collectArrayRefs(sub, plan.indexRefs);
                }
                if (s->kind == StmtKind::Assign)
                    for (const Expr* sub : s->lhs->args)
                        collectArrayRefs(sub, plan.indexRefs);
                if (plan.exec->guard != StmtExec::Guard::Union) break;
                // Section 2.1 / 4: executed by the union of all
                // processors executing any other statement inside the
                // loop for this iteration. Only statements in the same
                // iteration context (enclosing loops a subset of ours)
                // contribute — their owner descriptors are evaluable
                // right when the instance executes.
                const auto loops = prog_.enclosingLoops(s);
                if (loops.empty()) break;
                const Stmt* innermost = loops.back();
                prog_.forEachStmt([&](const Stmt* t) {
                    if (t == s || t->kind != StmtKind::Assign) return;
                    if (!Program::isInsideLoop(t, innermost)) return;
                    if (prog_.enclosingLoops(t).size() != loops.size())
                        return;
                    const StmtExec& tex = low_.execOf(t);
                    if (tex.guard != StmtExec::Guard::OwnerOf) return;
                    plan.unionSrcs.push_back(&tex.execDesc);
                });
                break;
            }
            case StmtKind::Do: {
                plan.loopElem = oracle_.store().elemIndexOf(s->loopVar);
                collectArrayRefs(s->lb, plan.indexRefs);
                collectArrayRefs(s->ub, plan.indexRefs);
                if (s->step != nullptr)
                    collectArrayRefs(s->step, plan.indexRefs);
                // Global combines for reductions whose nest ends here,
                // in comm-op order.
                for (const CommOp& op : low_.commOps()) {
                    if (!op.isReductionCombine) continue;
                    const ReductionInfo* red = nullptr;
                    for (const auto& r : low_.reductions())
                        if (r.stmt == op.atStmt) red = &r;
                    if (red == nullptr || red->loops.front() != s) continue;
                    plan.combines.push_back(CombinePlan{&op, red});
                    opStmt_[static_cast<size_t>(op.id)] = s->id;
                }
                break;
            }
            case StmtKind::Goto:
            case StmtKind::Continue:
                break;
        }
        if (engine_ == SimEngine::Bytecode &&
            (s->kind == StmtKind::Assign || s->kind == StmtKind::If)) {
            plan.code = bc::compileStmt(prog_, s, plan.exec, plan.unionSrcs,
                                        bcArena_);
            vm::validate(plan.code.value,
                         static_cast<int>(plan.code.slots.size()));
            maxRegs_ = std::max(maxRegs_, plan.code.value.numRegs);
            for (const bc::FetchSlot& sl : plan.code.slots)
                plan.slotOp.push_back(opByRef_[static_cast<size_t>(sl.ref->id)]);
        }
    });
    if (engine_ != SimEngine::Bytecode) return;
    // Lane-uniformity analysis. A symbol is *divergent* when valid
    // per-processor copies of it may differ from the oracle's value:
    // reduction accumulators (each processor accumulates privately),
    // and transitively any symbol assigned from a divergent read. A
    // phase whose statement is not an accumulation and fetches only
    // non-divergent symbols computes the oracle's value on every lane
    // (a valid copy of a non-divergent symbol always equals the oracle,
    // and a miss resolves from a valid copy), so the per-lane VM run is
    // redundant — only the communication accounting is.
    std::vector<char> divergent(prog_.symbols.size(), 0);
    for (const auto& r : low_.reductions()) {
        if (r.scalar != kNoSymbol) divergent[static_cast<size_t>(r.scalar)] = 1;
        if (r.locScalar != kNoSymbol)
            divergent[static_cast<size_t>(r.locScalar)] = 1;
        if (r.stmt != nullptr)
            divergent[static_cast<size_t>(r.stmt->lhs->sym)] = 1;
        if (r.locStmt != nullptr)
            divergent[static_cast<size_t>(r.locStmt->lhs->sym)] = 1;
    }
    bool changed = true;
    while (changed) {
        changed = false;
        prog_.forEachStmt([&](const Stmt* s) {
            if (s->kind != StmtKind::Assign) return;
            if (divergent[static_cast<size_t>(s->lhs->sym)] != 0) return;
            for (const Expr* r : plans_[static_cast<size_t>(s->id)].fetchRefs) {
                if (divergent[static_cast<size_t>(r->sym)] == 0) continue;
                divergent[static_cast<size_t>(s->lhs->sym)] = 1;
                changed = true;
                break;
            }
        });
    }
    prog_.forEachStmt([&](const Stmt* s) {
        if (s->kind != StmtKind::Assign && s->kind != StmtKind::If) return;
        StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
        bool uniform = !plan.isReductionAcc;
        for (const Expr* r : plan.fetchRefs)
            if (divergent[static_cast<size_t>(r->sym)] != 0) uniform = false;
        plan.laneUniform = uniform;
    });
    planAddresses();
}

void SpmdSimulator::planAddresses() {
    // The iteration vector: the integer DO variables no Assign writes.
    isIv_.assign(prog_.symbols.size(), 0);
    prog_.forEachStmt([&](const Stmt* s) {
        if (s->kind == StmtKind::Do &&
            prog_.sym(s->loopVar).type == ScalarType::Int)
            isIv_[static_cast<size_t>(s->loopVar)] = 1;
    });
    prog_.forEachStmt([&](const Stmt* s) {
        if (s->kind == StmtKind::Assign && s->lhs->kind == ExprKind::VarRef)
            isIv_[static_cast<size_t>(s->lhs->sym)] = 0;
    });
    const Store& st = oracle_.store();
    const auto ownerPlan = [&](const RefDesc& d,
                               const std::vector<bc::IndexForm>& forms) {
        OwnerPlan o;
        o.desc = &d;
        o.single = true;
        for (size_t g = 0; g < d.dims.size(); ++g) {
            o.subs.push_back(bc::bindAddr(forms[g], 0, isIv_));
            if (d.dims[g].kind == RefDim::Kind::Replicated) o.single = false;
        }
        o.last.assign(d.dims.size(), 0);
        return o;
    };
    prog_.forEachStmt([&](const Stmt* s) {
        if (s->kind != StmtKind::Assign && s->kind != StmtKind::If) return;
        StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
        const bc::StmtCode& code = plan.code;
        for (size_t i = 0; i < code.slots.size(); ++i) {
            plan.slotAddr.push_back(bc::bindAddr(
                code.slotIndex[i], st.elemIndexOf(code.slots[i].sym), isIv_));
            const CommOp* op = plan.slotOp[i];
            plan.slotSrc.push_back(
                op == nullptr ? OwnerPlan{}
                              : ownerPlan(op->srcDesc,
                                          bc::compileDescForms(
                                              prog_, op->srcDesc, bcArena_)));
        }
        if (s->kind == StmtKind::Assign)
            plan.lhsAddr = bc::bindAddr(code.lhsIndex,
                                        st.elemIndexOf(s->lhs->sym), isIv_);
        if (plan.exec->guard == StmtExec::Guard::OwnerOf)
            plan.execOwner = ownerPlan(plan.exec->execDesc, code.execIndex);
        for (size_t i = 0; i < plan.unionSrcs.size(); ++i)
            plan.unionOwners.push_back(
                ownerPlan(*plan.unionSrcs[i], code.unionIndex[i]));
    });
    // Strips: DO loops whose body is only lane-uniform Assigns on every
    // processor or on one owner, with iv-only forms and no subscript
    // left to check at run time.
    prog_.forEachStmt([&](const Stmt* s) {
        if (s->kind != StmtKind::Do ||
            isIv_[static_cast<size_t>(s->loopVar)] == 0)
            return;
        StripPlan sp;
        for (const Stmt* t : s->body) {
            if (t->kind != StmtKind::Assign) return;
            StmtPlan& tp = plans_[static_cast<size_t>(t->id)];
            const StmtExec::Guard guard = tp.exec->guard;
            const bool one =
                guard == StmtExec::Guard::OwnerOf && tp.execOwner.single;
            if (!tp.laneUniform || !tp.indexRefs.empty() ||
                !tp.code.subscripts.ranges.empty() ||
                tp.code.subscripts.perSubscript ||
                (guard != StmtExec::Guard::All && !one))
                return;
            StripPlan::Member m{t, static_cast<int>(sp.forms.size())};
            sp.forms.push_back(&tp.lhsAddr);
            for (const bc::AddrForm& a : tp.slotAddr) sp.forms.push_back(&a);
            if (one) {
                m.exec = StripPlan::Member::Exec::Hoisted;
                for (const bc::AddrForm& a : tp.execOwner.subs) {
                    sp.forms.push_back(&a);
                    if (a.coeffOf(s->loopVar) != 0)
                        m.exec = StripPlan::Member::Exec::Moving;
                }
            }
            sp.members.push_back(m);
        }
        for (const bc::AddrForm* a : sp.forms)
            if (!a->ivOnly()) return;
        plans_[static_cast<size_t>(s->id)].strip = std::move(sp);
    });
}

void SpmdSimulator::evalDescInto(const RefDesc& desc,
                                 const std::vector<bc::AddrForm>* subs,
                                 GridSet& out) const {
    const ProcGrid& grid = low_.dataMapping().grid();
    out.coord.assign(static_cast<size_t>(grid.rank()), -1);
    for (int g = 0; g < grid.rank(); ++g) {
        const RefDim& dim = desc.dims[static_cast<size_t>(g)];
        switch (dim.kind) {
            case RefDim::Kind::Replicated:
                break;
            case RefDim::Kind::Fixed:
                out.coord[static_cast<size_t>(g)] = dim.fixedCoord;
                break;
            case RefDim::Kind::Partitioned: {
                PHPF_ASSERT(dim.subscriptExpr != nullptr,
                            "partitioned dim without subscript expr");
                const std::int64_t v =
                    subs != nullptr
                        ? evalAddr((*subs)[static_cast<size_t>(g)])
                        : oracle_.evalIndex(dim.subscriptExpr);
                out.coord[static_cast<size_t>(g)] =
                    dim.dist.ownerOf(v + dim.offset);
                break;
            }
        }
    }
}

int SpmdSimulator::memoOwner(OwnerPlan& o, const std::int64_t* subs) {
    const std::vector<RefDim>& dims = o.desc->dims;
    bool repeat = o.owner >= 0;
    for (size_t g = 0; g < dims.size(); ++g) {
        if (dims[g].kind != RefDim::Kind::Partitioned) continue;
        repeat = repeat && o.last[g] == subs[g];
        o.last[g] = subs[g];
    }
    if (repeat) return o.owner;
    // Every grid dim is Fixed or Partitioned: compute the one
    // coordinate vector directly, skipping the GridSet enumeration.
    coordsScratch_.resize(dims.size());
    for (size_t g = 0; g < dims.size(); ++g)
        coordsScratch_[g] = dims[g].kind == RefDim::Kind::Fixed
                                ? dims[g].fixedCoord
                                : dims[g].dist.ownerOf(o.last[g] + dims[g].offset);
    o.owner = low_.dataMapping().grid().linearize(coordsScratch_);
    return o.owner;
}

int SpmdSimulator::oneOwner(OwnerPlan& o) {
    for (size_t g = 0; g < o.subs.size(); ++g)
        if (o.desc->dims[g].kind == RefDim::Kind::Partitioned)
            subsScratch_[g] = evalAddr(o.subs[g]);
    return memoOwner(o, subsScratch_.data());
}

const std::vector<int>& SpmdSimulator::executorsOf(const Stmt* s) {
    StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
    const ProcGrid& grid = low_.dataMapping().grid();
    const bool bcMode = engine_ == SimEngine::Bytecode;
    switch (plan.exec->guard) {
        case StmtExec::Guard::All:
            return allProcs_;
        case StmtExec::Guard::OwnerOf:
            if (bcMode && plan.execOwner.single) {
                singleProcScratch_[0] = oneOwner(plan.execOwner);
                return singleProcScratch_;
            }
            execsScratch_.clear();
            evalDescInto(plan.exec->execDesc,
                         bcMode ? &plan.execOwner.subs : nullptr, gsScratch_);
            forEachGridProc(gsScratch_, grid, coordsScratch_, [&](int p) {
                execsScratch_.push_back(p);
                return true;
            });
            return execsScratch_;
        case StmtExec::Guard::Union: {
            if (plan.unionSrcs.empty()) return allProcs_;
            std::fill(flagsScratch_.begin(), flagsScratch_.end(), 0);
            for (size_t i = 0; i < plan.unionSrcs.size(); ++i) {
                evalDescInto(*plan.unionSrcs[i],
                             bcMode ? &plan.unionOwners[i].subs : nullptr,
                             gsScratch_);
                forEachGridProc(gsScratch_, grid, coordsScratch_, [&](int p) {
                    flagsScratch_[static_cast<size_t>(p)] = 1;
                    return true;
                });
            }
            execsScratch_.clear();
            for (int p = 0; p < procCount_; ++p)
                if (flagsScratch_[static_cast<size_t>(p)] != 0)
                    execsScratch_.push_back(p);
            if (execsScratch_.empty()) return allProcs_;
            return execsScratch_;
        }
    }
    return allProcs_;
}

void SpmdSimulator::noteEvent(const CommOp* op) {
    const size_t id = static_cast<size_t>(op->id);
    const std::vector<SymbolId>& vars = opCtxVars_[id];
    std::vector<std::int64_t>& ctx = ctxMemo_[id];
    // Every event of the op's last recorded context is already in
    // events_, so a repeat of that context is a guaranteed duplicate.
    bool repeat = ctxMemoSet_[id] != 0;
    for (size_t k = 0; k < vars.size(); ++k) {
        const auto v = static_cast<std::int64_t>(oracle_.store().get(vars[k]));
        repeat = repeat && ctx[k] == v;
        ctx[k] = v;
    }
    if (repeat) return;
    ctxMemoSet_[id] = 1;
    if (events_.record(op->id, ctx)) {
        ++eventsPerOp_[static_cast<size_t>(op->id)];
        // Shared memory: each distinct sync event is one barrier epoch
        // (producers reach the barrier, consumers read the lines).
        if (targetKind_ == TargetKind::SharedMemory) ++barrierEvents_;
    }
}

double SpmdSimulator::fetch(int proc, const Expr* ref) {
    const std::int64_t flat = ref->kind == ExprKind::ArrayRef
                                  ? refFlat_[static_cast<size_t>(ref->id)]
                                  : 0;
    const std::int64_t row = soaRowOf(ref->sym, flat);
    if (soaValid_[static_cast<size_t>(row + proc)] != 0)
        return soa_[static_cast<size_t>(row + proc)];
    // A copy this processor already fetched earlier in the same phase
    // (bank writes are deferred to the merge).
    for (const PendingWrite& pw : pending_)
        if (pw.proc == proc && pw.row == row) return pw.v;

    const CommOp* op = opByRef_[static_cast<size_t>(ref->id)];
    PHPF_ASSERT(op != nullptr,
                "processor " + std::to_string(proc) +
                    " reads unavailable data with no communication op: " +
                    printExpr(prog_, ref) + " (program " + prog_.name + ")");
    double v = 0.0;
    const int src = holderOf(*op, nullptr, row, ref, v);
    pending_.push_back(PendingWrite{proc, row, v});
    misses_.push_back(MissRecord{op, proc, src});
    return v;
}

double SpmdSimulator::evalOn(int proc, const Expr* e) {
    switch (e->kind) {
        case ExprKind::IntLit:
            return static_cast<double>(e->ival);
        case ExprKind::RealLit:
            return e->rval;
        case ExprKind::VarRef:
        case ExprKind::ArrayRef:
            return fetch(proc, e);
        case ExprKind::Unary: {
            const double a = evalOn(proc, e->args[0]);
            return e->uop == UnaryOp::Neg ? -a : (a != 0.0 ? 0.0 : 1.0);
        }
        case ExprKind::Binary: {
            const double a = evalOn(proc, e->args[0]);
            const double b = evalOn(proc, e->args[1]);
            switch (e->bop) {
                case BinaryOp::Add: return a + b;
                case BinaryOp::Sub: return a - b;
                case BinaryOp::Mul: return a * b;
                case BinaryOp::Div: return a / b;
                case BinaryOp::Pow: return std::pow(a, b);
                case BinaryOp::Lt: return a < b ? 1.0 : 0.0;
                case BinaryOp::Le: return a <= b ? 1.0 : 0.0;
                case BinaryOp::Gt: return a > b ? 1.0 : 0.0;
                case BinaryOp::Ge: return a >= b ? 1.0 : 0.0;
                case BinaryOp::Eq: return a == b ? 1.0 : 0.0;
                case BinaryOp::Ne: return a != b ? 1.0 : 0.0;
                case BinaryOp::And:
                    return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
                case BinaryOp::Or:
                    return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
            }
            return 0.0;
        }
        case ExprKind::Call: {
            switch (e->fn) {
                case Intrinsic::Abs:
                    return std::abs(evalOn(proc, e->args[0]));
                case Intrinsic::Max:
                    return std::max(evalOn(proc, e->args[0]),
                                    evalOn(proc, e->args[1]));
                case Intrinsic::Min:
                    return std::min(evalOn(proc, e->args[0]),
                                    evalOn(proc, e->args[1]));
                case Intrinsic::Sqrt:
                    return std::sqrt(evalOn(proc, e->args[0]));
                case Intrinsic::Mod:
                    return std::fmod(evalOn(proc, e->args[0]),
                                     evalOn(proc, e->args[1]));
                case Intrinsic::Sign: {
                    const double a = evalOn(proc, e->args[0]);
                    const double b = evalOn(proc, e->args[1]);
                    return b >= 0.0 ? std::abs(a) : -std::abs(a);
                }
                case Intrinsic::Exp:
                    return std::exp(evalOn(proc, e->args[0]));
            }
            return 0.0;
        }
    }
    return 0.0;
}

void SpmdSimulator::runLanes(const StmtPlan& plan,
                             const std::vector<int>& execs) {
    const bc::StmtCode& code = plan.code;
    const int lanes = static_cast<int>(execs.size());
    if (lanes <= 0) return;
    const int* lp = execs.data();
    const std::int64_t* rows = slotRow_.data();
    const double* soa = soa_.data();
    const char* soaValid = soaValid_.data();
    const char* allValid = slotAllValid_.data();
    // Dense lane sets (guard All) index procs 0..P-1 in order, so a
    // fully-valid slot row is one contiguous copy.
    const bool dense = &execs == &allProcs_;
    vm::runLanes(
        code.value, lanes, regs_.data(), procCount_,
        [&](double* d, int n, int slot) {
            // Lane-major SoA: every lane of one slot reads from the
            // same procCount-wide contiguous row.
            const std::int64_t row = rows[slot];
            if (allValid[slot] != 0) {
                if (dense) {
                    std::memcpy(d, soa + row,
                                static_cast<size_t>(n) * sizeof(double));
                } else {
                    for (int l = 0; l < n; ++l) d[l] = soa[row + lp[l]];
                }
                return;
            }
            for (int l = 0; l < n; ++l) {
                const std::int64_t at = row + lp[l];
                d[l] = soaValid[at] != 0 ? soa[at]
                                         : missLaneBc(lp[l], plan, slot);
            }
        });
    std::copy(regs_.data(), regs_.data() + lanes, values_.data());
}

double SpmdSimulator::missLaneBc(int proc, const StmtPlan& plan, int slot) {
    const std::int64_t row = slotRow_[static_cast<size_t>(slot)];
    // A copy this processor already fetched earlier in the same phase
    // (a second slot aliasing the same element at runtime).
    for (const PendingWrite& pw : pending_)
        if (pw.proc == proc && pw.row == row) return pw.v;
    PHPF_DASSERT(slotMissResolved_[static_cast<size_t>(slot)] != 0,
                 "lane miss on a slot the phase pre-resolution skipped");
    const double v = slotMissV_[static_cast<size_t>(slot)];
    pending_.push_back(PendingWrite{proc, row, v});
    misses_.push_back(MissRecord{plan.slotOp[static_cast<size_t>(slot)], proc,
                                 slotMissSrc_[static_cast<size_t>(slot)]});
    return v;
}

void SpmdSimulator::resolveSlotMiss(StmtPlan& plan, int slot,
                                    int firstProc) {
    const bc::FetchSlot& sl = plan.code.slots[static_cast<size_t>(slot)];
    const CommOp* op = plan.slotOp[static_cast<size_t>(slot)];
    PHPF_ASSERT(op != nullptr,
                "processor " + std::to_string(firstProc) +
                    " reads unavailable data with no communication op: " +
                    printExpr(prog_, sl.ref) + " (program " + prog_.name + ")");
    // Owner validity is frozen within a phase (bank writes are deferred
    // to the merge), so one (value, source) resolution is exact for
    // every missing lane — the interpreter's per-lane fetches find the
    // identical holder in the identical order.
    slotMissSrc_[static_cast<size_t>(slot)] =
        holderOf(*op, &plan.slotSrc[static_cast<size_t>(slot)],
                 slotRow_[static_cast<size_t>(slot)], sl.ref,
                 slotMissV_[static_cast<size_t>(slot)]);
    slotMissResolved_[static_cast<size_t>(slot)] = 1;
}

int SpmdSimulator::holderOf(const CommOp& op, OwnerPlan* srcPlan,
                            std::int64_t row, const Expr* ref, double& v) {
    // Stale-free by construction: writes invalidate every non-executing
    // copy, so any valid copy in the owner set holds the current value.
    int src = -1;
    if (srcPlan != nullptr && srcPlan->single) {
        const int p = oneOwner(*srcPlan);
        if (soaValid_[static_cast<size_t>(row + p)] != 0) src = p;
    } else {
        evalDescInto(op.srcDesc, srcPlan != nullptr ? &srcPlan->subs : nullptr,
                     gsScratch_);
        forEachGridProc(gsScratch_, low_.dataMapping().grid(), coordsScratch_,
                        [&](int p) {
                            if (soaValid_[static_cast<size_t>(row + p)] == 0)
                                return true;
                            src = p;
                            return false;
                        });
    }
    PHPF_ASSERT(src >= 0, "no owner holds a valid copy of " +
                              printExpr(prog_, ref) + " in program " +
                              prog_.name);
    v = soa_[static_cast<size_t>(row + src)];
    return src;
}

std::int64_t SpmdSimulator::checkedFlatIndex(const Expr* ref) const {
    return flatIndexOfRef(
        prog_, ref, [this](const Expr* sub) { return oracle_.evalIndex(sub); },
        [&](int d, std::int64_t v) {
            const ArrayDim& bounds =
                prog_.sym(ref->sym).dims[static_cast<size_t>(d)];
            throw SimFault(faultsite::kSimSubscript,
                           "subscript " + std::to_string(d + 1) + " of " +
                               printExpr(prog_, ref) + " is " +
                               std::to_string(v) +
                               ", outside its declared bounds " +
                               std::to_string(bounds.lb) + ":" +
                               std::to_string(bounds.ub) + " (program " +
                               prog_.name + ")");
        });
}

void SpmdSimulator::resolveSubscripts(const Stmt* s, const StmtPlan& plan) {
    for (const Expr* r : plan.indexRefs) (void)checkedFlatIndex(r);
    if (engine_ == SimEngine::Bytecode && plan.code.subscripts.passes(oracle_))
        return;
    // Subscripts are iteration-dependent but identical on every
    // executor: the interp engine resolves each fetched ArrayRef and the
    // lhs once on the oracle. For the bytecode engine this walk checks
    // the subscripts its ranges cannot, and names the first offending
    // subscript exactly as the interp engine does.
    for (const Expr* r : plan.fetchRefs)
        if (r->kind == ExprKind::ArrayRef)
            refFlat_[static_cast<size_t>(r->id)] = checkedFlatIndex(r);
    if (s->kind == StmtKind::Assign && s->lhs->kind == ExprKind::ArrayRef)
        refFlat_[static_cast<size_t>(s->lhs->id)] = checkedFlatIndex(s->lhs);
    PHPF_ASSERT(engine_ != SimEngine::Bytecode ||
                    plan.code.subscripts.perSubscript,
                "subscript range check of statement " + std::to_string(s->id) +
                    " disagrees with its subscript trees");
}

void SpmdSimulator::addressSlots(const StmtPlan& plan) {
    for (size_t i = 0; i < plan.slotAddr.size(); ++i) {
        slotElem_[i] = evalAddr(plan.slotAddr[i]);
        slotRow_[i] = slotElem_[i] * procCount_;
    }
}

bool SpmdSimulator::resolveSlots(StmtPlan& plan,
                                 const std::vector<int>& execs) {
    const bool dense = &execs == &allProcs_;
    bool clean = true;
    for (size_t i = 0; i < plan.code.slots.size(); ++i) {
        slotMissResolved_[i] = 0;
        // Pre-resolve every slot some executor will miss: validity is
        // frozen for the whole phase, so the resolution is identical for
        // all lanes. A slot every executor holds is flagged so the VM
        // loads it as one contiguous row.
        const char* vrow = soaValid_.data() + slotRow_[i];
        char ok = 1;
        if (dense) {
            const int miss = firstZeroByte(vrow, procCount_);
            if (miss >= 0) {
                ok = 0;
                resolveSlotMiss(plan, static_cast<int>(i), miss);
            }
        } else {
            for (const int p : execs) {
                if (vrow[p] != 0) continue;
                ok = 0;
                resolveSlotMiss(plan, static_cast<int>(i), p);
                break;
            }
        }
        slotAllValid_[i] = ok;
        clean = clean && ok != 0;
    }
    return clean;
}

bool SpmdSimulator::evalPhase(StmtPlan& plan,
                              const std::vector<int>& execs, const Expr* e,
                              std::int64_t directRow) {
    const size_t ne = execs.size();
    bool clean = false;
    values_.resize(ne);
    if (engine_ == SimEngine::Bytecode) {
        addressSlots(plan);
        clean = resolveSlots(plan, execs);
        runLanes(plan, execs);
    } else {
        for (size_t i = 0; i < ne; ++i) values_[i] = evalOn(execs[i], e);
    }
    if (directRow >= 0) {
        // Relaxed mode: each executor commits its private reduction
        // accumulator immediately. Any cross-processor read of the
        // accumulator inside the loop would have tripped the
        // no-communication-op assert in strict mode as well.
        for (size_t i = 0; i < ne; ++i) {
            soa_[static_cast<size_t>(directRow + execs[i])] = values_[i];
            soaValid_[static_cast<size_t>(directRow + execs[i])] = 1;
        }
    }
    return clean;
}

void SpmdSimulator::mergePhase() {
    // Event-context memo: the oracle's scalars are constant for the
    // whole merge, so after noteEvent(op) ran once, repeating it for
    // the same op is a guaranteed duplicate (InternedEventSet::record
    // returns false) — skip the context rebuild and hash probe.
    ++mergeStamp_;
    for (const PendingWrite& pw : pending_) {
        const std::int64_t at = pw.row + pw.proc;
        soa_[static_cast<size_t>(at)] = pw.v;
        soaValid_[static_cast<size_t>(at)] = 1;
    }
    for (const MissRecord& m : misses_) {
        ++transfers_;
        ++elemsPerOp_[static_cast<size_t>(m.op->id)];
        ++procMetrics_[static_cast<size_t>(m.proc)].recvElements;
        ++procMetrics_[static_cast<size_t>(m.src)].sentElements;
        std::uint64_t& stamp = opStamp_[static_cast<size_t>(m.op->id)];
        if (stamp != mergeStamp_) {
            noteEvent(m.op);
            stamp = mergeStamp_;
        }
    }
    pending_.clear();
    misses_.clear();
}

void SpmdSimulator::execStmt(const Stmt* s) {
    switch (s->kind) {
        case StmtKind::Assign:
        case StmtKind::If: {
            std::chrono::steady_clock::time_point t0;
            const bool timed = sampleStart(t0);
            StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
            checkSubscripts(s, plan);
            const std::vector<int>& execs = executorsOf(s);
            accountExecutors(s->id, execs);
            double v = 0.0;
            if (plan.laneUniform) {
                addressSlots(plan);
                v = execUniformBc(s, plan, execs, evalAddr(plan.lhsAddr));
            } else {
                v = execPhases(s, plan, execs);
            }
            // An If's sample ends before its taken branch runs.
            if (timed) sampleEnd(s->id, t0);
            if (s->kind == StmtKind::If)
                execBlock(v != 0.0 ? s->thenBody : s->elseBody);
            break;
        }
        case StmtKind::Do: {
            StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
            for (const Expr* r : plan.indexRefs) (void)checkedFlatIndex(r);
            const auto lb = oracle_.evalIndex(s->lb);
            const auto ub = oracle_.evalIndex(s->ub);
            const auto step =
                s->step != nullptr ? oracle_.evalIndex(s->step) : std::int64_t{1};
            if (relaxed_) {
                // Snapshot each commutative accumulator's loop-entry
                // value: the relaxed Sum combine is the exact delta sum
                // init + sum_p (v_p - init), which is order-independent
                // because integer-valued deltas stay exact in doubles.
                for (const CombinePlan& c : plan.combines)
                    if (relaxedCombinable(c.red->op))
                        combineInit_[static_cast<size_t>(c.op->id)] =
                            oracle_.store().get(c.op->ref->sym);
            }
            if (!plan.strip.members.empty()) {
                if (step > 0 ? lb <= ub : lb >= ub)
                    runStrip(s, plan, lb, ub, step);
            } else {
                for (std::int64_t iv = lb; step > 0 ? iv <= ub : iv >= ub;
                     iv += step) {
                    oracle_.store().setElem(plan.loopElem,
                                            static_cast<double>(iv));
                    soaBroadcast(plan.loopElem, static_cast<double>(iv));
                    iv_[static_cast<size_t>(s->loopVar)] = iv;
                    execLoopBody(s);
                }
            }
            runCombines(s);
            break;
        }
        case StmtKind::Goto:
            throw GotoSignal{s->gotoTarget};
        case StmtKind::Continue:
            break;
    }
}

void SpmdSimulator::runStrip(const Stmt* s, StmtPlan& plan, std::int64_t lb,
                             std::int64_t ub, std::int64_t step) {
    StripPlan& sp = plan.strip;
    const size_t nForms = sp.forms.size();
    std::int64_t* cur = stripCur_.data();
    std::int64_t* delta = stripDelta_.data();
    // The forms see the first iteration's state (Debug builds re-derive
    // them from the oracle's subscript trees).
    oracle_.store().setElem(plan.loopElem, static_cast<double>(lb));
    iv_[static_cast<size_t>(s->loopVar)] = lb;
    for (size_t k = 0; k < nForms; ++k) {
        cur[k] = evalAddr(*sp.forms[k]);
        delta[k] = sp.forms[k]->coeffOf(s->loopVar) * step;
    }
    using Exec = StripPlan::Member::Exec;
    for (StripPlan::Member& m : sp.members) {
        StmtPlan& mp = plans_[static_cast<size_t>(m.s->id)];
        if (m.exec == Exec::Hoisted)
            m.owner = memoOwner(mp.execOwner,
                                cur + m.at + 1 + mp.slotAddr.size());
    }
    const char* valid = soaValid_.data();
    const double* od = oracle_.store().dataRaw();
    for (std::int64_t iv = lb; step > 0 ? iv <= ub : iv >= ub; iv += step) {
        oracle_.store().setElem(plan.loopElem, static_cast<double>(iv));
        soaBroadcast(plan.loopElem, static_cast<double>(iv));
        iv_[static_cast<size_t>(s->loopVar)] = iv;
        for (size_t k = 0; k < nForms; ++k)
            PHPF_DASSERT(cur[k] == evalAddr(*sp.forms[k]),
                         "strip address diverges from its form");
        for (StripPlan::Member& m : sp.members) {
            std::chrono::steady_clock::time_point t0;
            const bool timed = sampleStart(t0);
            StmtPlan& mp = plans_[static_cast<size_t>(m.s->id)];
            const size_t nSlots = mp.slotAddr.size();
            const std::int64_t* a = cur + m.at;  // lhs, slots, executor
            const int p = m.exec == Exec::All      ? -1
                          : m.exec == Exec::Hoisted ? m.owner
                                                    : memoOwner(mp.execOwner,
                                                                a + 1 + nSlots);
            if (p >= 0) singleProcScratch_[0] = p;
            const std::vector<int>& execs =
                p < 0 ? allProcs_ : singleProcScratch_;
            accountExecutors(m.s->id, execs);
            bool clean = true;
            for (size_t k = 0; k < nSlots && clean; ++k) {
                const char* vrow = valid + a[1 + k] * procCount_;
                clean = p < 0 ? firstZeroByte(vrow, procCount_) < 0
                              : vrow[p] != 0;
            }
            if (clean) {
                storeUniform(execs, a[0],
                             vm::runScalar(mp.code.value, oracleRegs_.data(),
                                           [&](int slot) {
                                               return od[a[1 + slot]];
                                           }));
            } else {
                for (size_t k = 0; k < nSlots; ++k) {
                    slotElem_[k] = a[1 + k];
                    slotRow_[k] = a[1 + k] * procCount_;
                }
                (void)execUniformBc(m.s, mp, execs, a[0]);
            }
            if (timed) sampleEnd(m.s->id, t0);
        }
        for (size_t k = 0; k < nForms; ++k) cur[k] += delta[k];
    }
}

double SpmdSimulator::execPhases(const Stmt* s, StmtPlan& plan,
                                 const std::vector<int>& execs) {
    const bool bcMode = engine_ == SimEngine::Bytecode;
    const bool assign = s->kind == StmtKind::Assign;
    const Expr* e = assign ? s->rhs : s->cond;
    // Relaxed mode: a scalar reduction accumulator is committed by each
    // executor as soon as its lane finishes, skipping the merge-order
    // barrier below. Safe because the combine is commutative and nobody
    // else may read the accumulator mid-loop (no communication op exists
    // for it).
    const bool direct = assign && relaxed_ && plan.isReductionAcc &&
                        s->lhs->kind == ExprKind::VarRef;
    const std::int64_t elem =
        !assign  ? 0
        : bcMode ? evalAddr(plan.lhsAddr)
                 : oracle_.store().elemIndexOf(
                       s->lhs->sym, s->lhs->kind == ExprKind::ArrayRef
                                        ? refFlat_[static_cast<size_t>(
                                              s->lhs->id)]
                                        : 0);
    const std::int64_t row = elem * procCount_;
    // Evaluate on every executor against the pre-statement state (an
    // If: its predicate's communication).
    if (!evalPhase(plan, execs, e, direct ? row : -1)) mergePhase();
    // The statement's value on the oracle: the bytecode engine runs the
    // same chunk on the reference state, so it never pays a tree walk
    // either.
    const double* od = oracle_.store().dataRaw();
    const double v =
        bcMode ? vm::runScalar(plan.code.value, oracleRegs_.data(),
                               [&](int slot) { return od[slotElem_[slot]]; })
               : oracle_.eval(e);
    if (!assign) return v;
    if (!plan.isReductionAcc)
        // Non-executors' copies become stale: one contiguous
        // validity-row clear.
        std::memset(soaValid_.data() + row, 0,
                    static_cast<size_t>(procCount_));
    if (!direct) {
        for (size_t i = 0; i < execs.size(); ++i) {
            soa_[static_cast<size_t>(row + execs[i])] = values_[i];
            soaValid_[static_cast<size_t>(row + execs[i])] = 1;
        }
    }
    oracle_.store().setElem(elem, v);
    oracle_.noteStatementExecuted();
    return v;
}

double SpmdSimulator::execUniformBc(const Stmt* s, StmtPlan& plan,
                                    const std::vector<int>& execs,
                                    std::int64_t lhsElem) {
    const size_t nSlots = plan.code.slots.size();
    const size_t ne = execs.size();
    if (!resolveSlots(plan, execs)) {
        // Apply the misses in place — the slot-major lane order, the
        // row-equality dedup and the per-merge event memo of the
        // deferred evalPhase + mergePhase pair (mutating a row here
        // cannot change a later slot's miss set: an equal row is
        // dedup-skipped, a different row is untouched).
        ++mergeStamp_;
        for (size_t i = 0; i < nSlots; ++i) {
            if (slotAllValid_[i] != 0) continue;
            bool dup = false;
            for (size_t j = 0; j < i; ++j)
                if (slotElem_[j] == slotElem_[i]) dup = true;
            if (dup) continue;
            const std::int64_t row = slotRow_[i];
            char* vrow = soaValid_.data() + row;
            const double mv = slotMissV_[i];
            const int src = slotMissSrc_[i];
            const CommOp* op = plan.slotOp[i];
            const size_t opId = static_cast<size_t>(op->id);
            for (size_t l = 0; l < ne; ++l) {
                const int p = execs[l];
                if (vrow[p] != 0) continue;
                soa_[static_cast<size_t>(row + p)] = mv;
                vrow[p] = 1;
                ++transfers_;
                ++elemsPerOp_[opId];
                ++procMetrics_[static_cast<size_t>(p)].recvElements;
                ++procMetrics_[static_cast<size_t>(src)].sentElements;
                std::uint64_t& stamp = opStamp_[opId];
                if (stamp != mergeStamp_) {
                    noteEvent(op);
                    stamp = mergeStamp_;
                }
            }
        }
    }
    // Every lane computes the oracle's value (lane uniformity): run the
    // chunk once on the oracle; an Assign broadcasts it.
    const double* od = oracle_.store().dataRaw();
    const double v =
        vm::runScalar(plan.code.value, oracleRegs_.data(),
                      [&](int slot) { return od[slotElem_[slot]]; });
    if (s->kind == StmtKind::Assign) storeUniform(execs, lhsElem, v);
    return v;
}

void SpmdSimulator::storeUniform(const std::vector<int>& execs,
                                 std::int64_t elem, double v) {
    const std::int64_t row = elem * procCount_;
    if (&execs == &allProcs_) {
        std::fill(soa_.begin() + row, soa_.begin() + row + procCount_, v);
        std::memset(soaValid_.data() + row, 1,
                    static_cast<size_t>(procCount_));
    } else {
        // Non-executors' copies become stale (lane-uniform statements
        // are never reduction accumulations).
        std::memset(soaValid_.data() + row, 0,
                    static_cast<size_t>(procCount_));
        for (const int p : execs) {
            soa_[static_cast<size_t>(row + p)] = v;
            soaValid_[static_cast<size_t>(row + p)] = 1;
        }
    }
    oracle_.store().setElem(elem, v);
    oracle_.noteStatementExecuted();
}

void SpmdSimulator::execLoopBody(const Stmt* s) {
    try {
        execBlock(s->body);
    } catch (GotoSignal& g) {
        for (size_t i = 0; i < s->body.size(); ++i) {
            if (s->body[i]->label == g.label) {
                std::vector<Stmt*> rest(
                    s->body.begin() + static_cast<std::ptrdiff_t>(i),
                    s->body.end());
                execBlock(rest);
                return;
            }
        }
        throw;
    }
}

void SpmdSimulator::runCombines(const Stmt* s) {
    // Apply global combining for reductions whose nest just ended.
    // Their events/transfers are attributed to the loop statement
    // (opStmt_).
    for (const CombinePlan& c : plans_[static_cast<size_t>(s->id)].combines) {
        const CommOp& op = *c.op;
        const bool relaxedOp = relaxed_ && relaxedCombinable(c.red->op);
        const double v =
            relaxedOp ? combineRelaxed(c) : oracle_.eval(op.ref);
        // In relaxed mode the combined value is defined by the worker
        // copies, not the oracle's sequential accumulation; write it
        // back so the reference state agrees with the broadcast.
        if (relaxedOp) oracle_.store().set(op.ref->sym, 0, v);
        soaBroadcast(oracle_.store().elemIndexOf(op.ref->sym), v);
        if (c.red->locScalar != kNoSymbol)
            soaBroadcast(oracle_.store().elemIndexOf(c.red->locScalar),
                         oracle_.store().get(c.red->locScalar));
        noteEvent(&op);
        ++transfers_;
        ++elemsPerOp_[static_cast<size_t>(op.id)];
        // The combine delivers the global result everywhere.
        for (int p = 0; p < procCount_; ++p)
            ++procMetrics_[static_cast<size_t>(p)].recvElements;
    }
}

double SpmdSimulator::combineRelaxed(const CombinePlan& c) const {
    const std::int64_t row = soaRowOf(c.op->ref->sym, 0);
    const double* val = soa_.data() + row;
    // Only VALID copies participate: a processor whose copy was
    // invalidated (e.g. it did not execute the accumulator's reset
    // assignment) still holds the value from a PREVIOUS reduction nest,
    // not this nest's loop-entry value — combining it would double-count
    // history. Executors always hold valid copies (the direct commit
    // marks them), so at least one copy participates.
    const char* valid = soaValid_.data() + row;
    switch (c.red->op) {
        case ReductionInfo::Op::Sum: {
            // Delta sum over per-processor accumulator copies. A valid
            // copy on a processor that never executed the reduction
            // statement is exactly the loop-entry value, so its delta
            // is exactly 0.0 and contributes nothing.
            const double init = combineInit_[static_cast<size_t>(c.op->id)];
            double v = init;
            for (int p = 0; p < procCount_; ++p)
                if (valid[p] != 0) v += val[p] - init;
            return v;
        }
        case ReductionInfo::Op::Max:
        case ReductionInfo::Op::Min: {
            const bool isMax = c.red->op == ReductionInfo::Op::Max;
            bool seen = false;
            double v = 0.0;
            for (int p = 0; p < procCount_; ++p) {
                if (valid[p] == 0) continue;
                v = !seen  ? val[p]
                    : isMax ? std::max(v, val[p])
                            : std::min(v, val[p]);
                seen = true;
            }
            PHPF_ASSERT(seen, std::string("relaxed ") + (isMax ? "Max" : "Min") +
                                  " combine with no valid copy");
            return v;
        }
        default:
            break;
    }
    PHPF_ASSERT(false, "combineRelaxed on non-commutative reduction");
    return 0.0;
}

void SpmdSimulator::execBlock(const std::vector<Stmt*>& block) {
    for (size_t i = 0; i < block.size(); ++i) {
        try {
            execStmt(block[i]);
        } catch (GotoSignal& g) {
            bool handled = false;
            for (size_t j = i + 1; j < block.size(); ++j) {
                if (block[j]->label == g.label) {
                    i = j - 1;
                    handled = true;
                    break;
                }
            }
            if (!handled) throw;
        }
    }
}

void SpmdSimulator::distributeInputs() {
    const ProcGrid& grid = low_.dataMapping().grid();
    const Store& seeded = oracle_.store();
    std::vector<int> stride(static_cast<size_t>(grid.rank()), 1);
    for (int g = grid.rank() - 1; g > 0; --g)  // ProcGrid::linearize order
        stride[static_cast<size_t>(g - 1)] =
            stride[static_cast<size_t>(g)] * grid.extent(g);
    std::vector<std::vector<int>> table;  // per array dim: lane part by index
    std::vector<int> replicas;            // lane offsets over replicated dims
    std::vector<size_t> idx;
    for (const Symbol& sym : prog_.symbols) {
        if (!sym.isArray()) {
            soaBroadcast(seeded.elemIndexOf(sym.id), seeded.get(sym.id));
            continue;
        }
        // ArrayMap::ownerOf, factored per grid dim: the coordinate of the
        // last array dim partitioned over it, else its fixedCoord, else
        // every coordinate.
        const ArrayMap& map = low_.dataMapping().mapOf(sym.id);
        const size_t rank = sym.dims.size();
        table.assign(rank, {});
        replicas.assign(1, 0);
        int base = 0;
        for (int g = 0; g < grid.rank(); ++g) {
            const int sg = stride[static_cast<size_t>(g)];
            size_t d = rank;
            for (size_t k = 0; k < rank; ++k)
                if (map.dims[k].gridDim == g) d = k;
            if (d < rank) {
                const ArrayDimMap& m = map.dims[d];
                for (std::int64_t i = sym.dims[d].lb; i <= sym.dims[d].ub; ++i)
                    table[d].push_back(m.dist.ownerOf(i + m.alignOffset) * sg);
            } else if (const int c = map.fixedCoord[static_cast<size_t>(g)];
                       c >= 0) {
                base += c * sg;
            } else {
                const size_t had = replicas.size();
                for (int c = 1; c < grid.extent(g); ++c)
                    for (size_t r = 0; r < had; ++r)
                        replicas.push_back(replicas[r] + c * sg);
            }
        }
        // Walk the elements in flat (column-major) order.
        idx.assign(rank, 0);
        for (std::int64_t f = 0; f < seeded.sizeOf(sym.id); ++f) {
            std::int64_t at = soaRowOf(sym.id, f) + base;
            for (size_t d = 0; d < rank; ++d)
                if (!table[d].empty()) at += table[d][idx[d]];
            for (const int r : replicas) {
                soa_[static_cast<size_t>(at + r)] = seeded.get(sym.id, f);
                soaValid_[static_cast<size_t>(at + r)] = 1;
            }
            for (size_t d = 0; d < rank; ++d) {
                if (++idx[d] < static_cast<size_t>(sym.dims[d].extent())) break;
                idx[d] = 0;
            }
        }
    }
}

void SpmdSimulator::run() {
    const auto t0 = std::chrono::steady_clock::now();
    distributeInputs();
    for (size_t s = 0; s < isIv_.size(); ++s)
        if (isIv_[s] != 0)
            iv_[s] = static_cast<std::int64_t>(
                oracle_.store().get(static_cast<SymbolId>(s)));
    try {
        execBlock(prog_.top);
    } catch (...) {
        // A SimFault escaping mid-run must still leave the per-proc
        // metrics coherent for post-mortem inspection.
        flushAccounting();
        throw;
    }
    flushAccounting();
    wallSec_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
}

std::int64_t SpmdSimulator::eventsOfOp(int opId) const {
    return opId >= 0 && static_cast<size_t>(opId) < eventsPerOp_.size()
               ? eventsPerOp_[static_cast<size_t>(opId)]
               : 0;
}

std::int64_t SpmdSimulator::elementsOfOp(int opId) const {
    return opId >= 0 && static_cast<size_t>(opId) < elemsPerOp_.size()
               ? elemsPerOp_[static_cast<size_t>(opId)]
               : 0;
}

void SpmdSimulator::accountExecutors(int stmt,
                                     const std::vector<int>& execs) {
    // Guard accounting: processors in `execs` pass their computation-
    // partitioning guard for this statement instance, everyone else
    // evaluates the guard and skips. Only executions are counted;
    // flushAccounting derives every other view at the end of the run.
    std::int64_t* row =
        stmtAcct_.data() +
        static_cast<size_t>(stmt) * static_cast<size_t>(procCount_ + 2);
    ++row[procCount_];
    if (&execs == &allProcs_) {
        ++row[procCount_ + 1];
        return;
    }
    for (const int p : execs) ++row[p];
}

void SpmdSimulator::flushAccounting() {
    const auto nProcs = static_cast<size_t>(procCount_);
    const size_t nStmts = stmtAcct_.size() / (nProcs + 2);
    std::int64_t instances = 0;
    for (ProcSimMetrics& m : procMetrics_) m.stmtsExecuted = 0;
    for (size_t s = 0; s < nStmts; ++s) {
        std::int64_t* row = stmtAcct_.data() + s * (nProcs + 2);
        instances += row[nProcs];
        for (size_t p = 0; p < nProcs; ++p) {
            row[p] += row[nProcs + 1];
            procMetrics_[p].stmtsExecuted += row[p];
        }
        row[nProcs + 1] = 0;
    }
    procStmts_ = 0;
    for (ProcSimMetrics& m : procMetrics_) {
        m.stmtsSkipped = instances - m.stmtsExecuted;
        procStmts_ += m.stmtsExecuted;
    }
    if (profile_ == nullptr) return;
    std::vector<std::int64_t> elems(nStmts, 0);
    std::vector<std::int64_t> events(nStmts, 0);
    for (size_t op = 0; op < opStmt_.size(); ++op) {
        if (opStmt_[op] < 0) continue;
        elems[static_cast<size_t>(opStmt_[op])] += elemsPerOp_[op];
        events[static_cast<size_t>(opStmt_[op])] += eventsPerOp_[op];
    }
    for (size_t s = 0; s < nStmts; ++s) {
        const std::int64_t* row = stmtAcct_.data() + s * (nProcs + 2);
        profile_->setCounts(static_cast<int>(s), row[nProcs], row, elems[s],
                            events[s]);
    }
}

double SpmdSimulator::imbalanceRatio() const {
    std::int64_t total = 0;
    std::int64_t maxExec = 0;
    for (const ProcSimMetrics& m : procMetrics_) {
        total += m.stmtsExecuted;
        maxExec = std::max(maxExec, m.stmtsExecuted);
    }
    if (total == 0) return 0.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(procCount_);
    return static_cast<double>(maxExec) / mean;
}

std::int64_t SpmdSimulator::laneOf(int proc, const std::string& name,
                                   std::int64_t flat) const {
    const SymbolId s = prog_.findSymbol(name);
    PHPF_ASSERT(s != kNoSymbol, "unknown symbol " + name);
    PHPF_ASSERT(proc >= 0 && proc < procCount_,
                "processor " + std::to_string(proc) + " out of range");
    return soaRowOf(s, flat) + proc;
}

double SpmdSimulator::valueOn(int proc, const std::string& name,
                              std::int64_t flat) const {
    return soa_[static_cast<size_t>(laneOf(proc, name, flat))];
}

bool SpmdSimulator::validOn(int proc, const std::string& name,
                            std::int64_t flat) const {
    return soaValid_[static_cast<size_t>(laneOf(proc, name, flat))] != 0;
}

double SpmdSimulator::maxErrorVsOracle(const std::string& name) const {
    const SymbolId s = prog_.findSymbol(name);
    PHPF_ASSERT(s != kNoSymbol, "unknown symbol " + name);
    const Store& ref = oracle_.store();
    double maxErr = 0.0;
    for (std::int64_t flat = 0; flat < ref.sizeOf(s); ++flat) {
        const double want = ref.get(s, flat);
        const std::int64_t row = soaRowOf(s, flat);
        for (int p = 0; p < procCount_; ++p)
            if (soaValid_[static_cast<size_t>(row + p)] != 0)
                maxErr = std::max(
                    maxErr, std::abs(soa_[static_cast<size_t>(row + p)] - want));
    }
    return maxErr;
}

}  // namespace phpf
