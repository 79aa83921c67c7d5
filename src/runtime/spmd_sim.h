#pragma once

#include <algorithm>
#include <chrono>
#include <memory>

#include "obs/profiler.h"
#include "runtime/bytecode.h"
#include "runtime/engine.h"
#include "runtime/interp.h"
#include "spmd/lowering.h"
#include "support/arena.h"
#include "target/target_kind.h"
#include "support/fault.h"
#include "support/interned_events.h"

namespace phpf {

/// Per-processor accounting of one simulated run: what each processor
/// executed, skipped (its computation-partitioning guard was false), and
/// moved. The imbalance across processors is the load-balance signal the
/// run report surfaces.
struct ProcSimMetrics {
    std::int64_t stmtsExecuted = 0;
    std::int64_t stmtsSkipped = 0;  ///< guard evaluated false
    std::int64_t recvElements = 0;
    std::int64_t sentElements = 0;
};

/// Functional simulator of the SPMD execution of a lowered program on a
/// distributed-memory machine (our stand-in for the paper's 16-node
/// SP2).
///
/// Per-processor state is two lane-major banks (values, validity): one
/// row per element of the oracle's Store, one lane per processor.
/// Distributed arrays are valid only where owned (or received),
/// privatized variables live as genuinely private per-processor copies.
/// Statements execute in global lockstep under their computation-
/// partitioning guards; a read of data the processor does not hold
/// triggers the matching communication op, transfers the value from its
/// owner, and accounts the message. A read with no covering comm op
/// aborts — an insufficient communication plan is a hard error.
///
/// Message accounting groups element transfers by (comm op, iteration
/// vector at the op's placement level): one group is one vectorized
/// message event, directly comparable with the analytic cost model's
/// event counts.
///
/// The simulator runs on the calling thread. Every executor of a
/// statement instance evaluates its right-hand side against the frozen
/// pre-statement state: bank writes (fetched-copy caching, lhs stores,
/// invalidation) are deferred to a merge at the end of the instance.
/// Frozen validity is what lets the bytecode engine resolve each miss
/// once per instance and still pick the source processor the
/// interpreter's per-lane owner scan picks.
///
/// Every subscript of a statement is checked against its declared
/// bounds before an executor set or a bank row is derived from it; an
/// out-of-range subscript stops the run with a SimFault at site
/// "sim.subscript".
class SpmdSimulator {
public:
    /// `elemBytes` is the machine element size used for byte accounting
    /// (CostModel::elemBytes; REAL = 8 on the modelled SP2).
    ///
    /// `engine` picks how values are computed and indices resolved: the
    /// tree-walking interpreter or the register-bytecode VM (default).
    /// Both produce bit-identical results AND metrics on the same banks;
    /// every other phase (merge, profiling) is shared code.
    ///
    /// `relaxedMerge` opts into combining commutative reductions
    /// (sum/max/min) from the per-processor partial accumulators in
    /// linear processor order instead of broadcasting the oracle's
    /// sequentially-ordered value, and lets reduction-accumulate
    /// statements write their private accumulator in-phase instead of
    /// through the ordered merge barrier. Max/min and integer sums stay
    /// exact; floating-point sums may differ from the oracle by
    /// reassociation. Still deterministic.
    /// `targetKind` selects the machine the accounting describes.
    /// Functional semantics are target-independent (the same lowering
    /// executes; a shared-memory "coherence read" moves the same value a
    /// message-passing "transfer" does), so results are bit-identical
    /// across targets. Under SharedMemory the simulator additionally
    /// counts barrier epochs (each vectorized sync event is one
    /// producers-then-consumers barrier of the modelled SMP).
    explicit SpmdSimulator(const SpmdLowering& low, int elemBytes = 8,
                           SimEngine engine = SimEngine::Bytecode,
                           bool relaxedMerge = false,
                           TargetKind targetKind = TargetKind::MessagePassing);

    /// Throws SimFault when a subscript falls outside its declared
    /// bounds.
    void run();

    /// Opt into the per-statement profiler before run(). Its counts
    /// (instances, per-proc executions, transfers, events) are the
    /// simulator's own per-statement accounting, filled in at the end of
    /// the run; the armed run adds only a 1-in-kSampleEvery clock sample
    /// per Assign/If instance (deterministic sample *counts*,
    /// host-dependent durations). The armed overhead budget is <2%
    /// (bench/bench_profile_overhead.cpp enforces it).
    void enableProfiling() {
        profile_ = std::make_unique<obs::StmtProfile>(prog_.stmtCount(),
                                                      procCount_);
    }
    /// The profile of the last run; null unless enableProfiling() was
    /// called.
    [[nodiscard]] const obs::StmtProfile* profile() const {
        return profile_.get();
    }

    [[nodiscard]] int procCount() const { return procCount_; }
    /// Eval-phase engine of this simulator.
    [[nodiscard]] SimEngine engine() const { return engine_; }
    /// True when the relaxed commutative reduction merge is active.
    [[nodiscard]] bool relaxedMerge() const { return relaxed_; }
    /// Wall-clock seconds of the last run() (initial distribution
    /// included).
    [[nodiscard]] double wallSec() const { return wallSec_; }

    /// Machine model this run's accounting describes.
    [[nodiscard]] TargetKind targetKind() const { return targetKind_; }
    /// Shared-memory target only: barrier epochs executed (one per
    /// distinct vectorized sync event, reduction combiner trees
    /// included). Always 0 under MessagePassing.
    [[nodiscard]] std::int64_t barrierEvents() const { return barrierEvents_; }

    /// Vectorized message events (see class comment).
    [[nodiscard]] std::int64_t messageEvents() const { return events_.size(); }
    /// Raw element transfers (element granularity).
    [[nodiscard]] std::int64_t elementTransfers() const { return transfers_; }
    [[nodiscard]] double bytesMoved() const {
        return static_cast<double>(transfers_ * elemBytes_);
    }
    [[nodiscard]] int elemBytes() const { return elemBytes_; }
    /// Message events attributed to one comm op.
    [[nodiscard]] std::int64_t eventsOfOp(int opId) const;
    /// Element transfers attributed to one comm op.
    [[nodiscard]] std::int64_t elementsOfOp(int opId) const;

    /// Per-processor execution/communication accounting of the last run.
    [[nodiscard]] const std::vector<ProcSimMetrics>& procMetrics() const {
        return procMetrics_;
    }
    /// max/mean statements-executed ratio across processors (1.0 =
    /// perfectly balanced; 0.0 when nothing executed).
    [[nodiscard]] double imbalanceRatio() const;

    /// The oracle (sequential reference) interpreter; seed inputs here
    /// before run(). run() first places each seeded array element on its
    /// owner set and broadcasts scalars, as initially-valid data: this
    /// models "already distributed" input without charging initial
    /// distribution.
    [[nodiscard]] Interpreter& oracle() { return oracle_; }

    /// Value of `name` on processor `proc` (flat element index).
    [[nodiscard]] double valueOn(int proc, const std::string& name,
                                 std::int64_t flat = 0) const;
    [[nodiscard]] bool validOn(int proc, const std::string& name,
                               std::int64_t flat = 0) const;

    /// Compare every valid per-processor copy of `name` with the
    /// oracle; returns the max absolute difference.
    [[nodiscard]] double maxErrorVsOracle(const std::string& name) const;

    [[nodiscard]] std::int64_t statementsExecutedAllProcs() const {
        return procStmts_;
    }
    /// Bytecode engine: DO loops planned as strips (see runStrip).
    [[nodiscard]] int stripLoops() const {
        return static_cast<int>(std::count_if(
            plans_.begin(), plans_.end(),
            [](const StmtPlan& p) { return !p.strip.members.empty(); }));
    }

private:
    struct GotoSignal {
        int label;
    };

    /// A reduction's global combine applied at the end of one loop nest.
    struct CombinePlan {
        const CommOp* op = nullptr;
        const ReductionInfo* red = nullptr;
    };

    /// Bytecode engine: how an executor or comm-op source descriptor
    /// finds its owners — one subscript form per grid dim (read for
    /// Partitioned dims only). A fully pinned descriptor (no Replicated
    /// dim) has one owner, memoized against the subscript values it was
    /// computed from: a repeat costs a compare.
    struct OwnerPlan {
        const RefDesc* desc = nullptr;
        std::vector<bc::AddrForm> subs;
        bool single = false;
        std::vector<std::int64_t> last;  ///< memo: subscript values
        int owner = -1;                  ///< memo: their owner; -1 none
    };

    /// Bytecode engine: a DO loop whose body is planned as a strip — only
    /// lane-uniform Assigns, each on every processor or on one owner,
    /// whose address and owner forms read only the iteration vector and
    /// whose subscripts need no check at run time. The strip evaluates
    /// every form once at loop entry and advances it by coeff x step per
    /// iteration (see runStrip).
    struct StripPlan {
        struct Member {
            const Stmt* s = nullptr;
            /// First form of the member in `forms`: its lhs address, then
            /// one address per fetch slot, then (one owner) its executor's
            /// subscript per grid dim.
            int at = 0;
            enum class Exec : std::uint8_t { All, Hoisted, Moving } exec =
                Exec::All;
            int owner = -1;  ///< Hoisted: the owner for the whole strip
        };
        std::vector<Member> members;
        std::vector<const bc::AddrForm*> forms;
    };

    /// Precomputed per-statement execution plan: everything executorsOf
    /// and the eval phase would otherwise rediscover on every statement
    /// instance (guard descriptors, Union contributor descriptors, the
    /// fetched refs of the rhs/cond, reduction roles, loop-end
    /// combines). Indexed by Stmt::id.
    struct StmtPlan {
        const StmtExec* exec = nullptr;  ///< Assign / If
        bool isReductionAcc = false;     ///< Assign: reduction accumulate
        /// Union guard: executor descriptors of the contributing
        /// owner-computes statements of the same loop body.
        std::vector<const RefDesc*> unionSrcs;
        /// VarRef/ArrayRef nodes the executors fetch (value positions of
        /// rhs/cond; subscripts resolve on the oracle).
        std::vector<const Expr*> fetchRefs;
        /// ArrayRefs read inside the subscripts of the statement's own
        /// refs (Do: inside its bounds), innermost first. Each is
        /// bounds-checked before the subscript that reads it is
        /// evaluated; usually empty.
        std::vector<const Expr*> indexRefs;
        std::vector<CombinePlan> combines;  ///< Do: loop-end combines
        /// Bytecode engine: compiled guard subscripts, index forms, and
        /// value chunk of this statement (empty under SimEngine::Interp).
        bc::StmtCode code;
        /// Bytecode engine, per fetch slot: the covering communication
        /// op (null when the slot's data is always local), its source
        /// descriptor's owner plan, and the slot's element address.
        std::vector<const CommOp*> slotOp;
        std::vector<OwnerPlan> slotSrc;
        std::vector<bc::AddrForm> slotAddr;
        /// Bytecode engine: element address of an Assign's lhs.
        bc::AddrForm lhsAddr;
        /// Bytecode engine: the OwnerOf executor descriptor's owner plan
        /// (single: the executor set is one processor), and a Union
        /// guard's contributor plans.
        OwnerPlan execOwner;
        std::vector<OwnerPlan> unionOwners;
        /// Do: element index of the loop variable, and (bytecode engine)
        /// the strip plan of its body; no members when it is no strip.
        std::int64_t loopElem = 0;
        StripPlan strip;
        /// Bytecode engine: every lane provably computes the oracle's
        /// value — the statement is not a reduction accumulation and no
        /// fetched symbol is divergent (per-processor copies of every
        /// read symbol equal the oracle whenever valid). Such statements
        /// run through execUniformBc, never the per-lane VM.
        bool laneUniform = false;
    };

    /// A fetched-copy bank write deferred to the end of the phase.
    struct PendingWrite {
        int proc;
        std::int64_t row;  ///< bank row base of the element
        double v;
    };
    /// One element transfer observed during a phase; accounted (and its
    /// event recorded) in observation order by the merge.
    struct MissRecord {
        const CommOp* op;
        int proc;
        int src;
    };

    void buildPlans();
    /// Bytecode engine: bind the address and owner forms of each plan
    /// to the iteration vector and plan the strips.
    void planAddresses();
    /// Place the oracle's seeded values on their owners' lanes (see
    /// oracle()).
    void distributeInputs();
    void execBlock(const std::vector<Stmt*>& block);
    void execStmt(const Stmt* s);
    /// General path of Assign/If `s` on its executors: the deferred
    /// eval and merge phases, then the statement's effect. Returns the
    /// oracle's value of the rhs/cond.
    double execPhases(const Stmt* s, StmtPlan& plan,
                      const std::vector<int>& execs);
    /// Bytecode engine, lane-uniform Assign/If whose slot addresses are
    /// in slotElem_/slotRow_ and whose lhs is element `lhsElem`: the one
    /// lane-uniform path. One pass resolves the fetch slots and applies
    /// any misses in place (the slot-major lane order and per-merge
    /// event memo of evalPhase + mergePhase, without their deferred
    /// record vectors), then runs the chunk once on the oracle; an
    /// Assign stores the result (storeUniform). Returns the oracle's
    /// rhs/cond value.
    double execUniformBc(const Stmt* s, StmtPlan& plan,
                         const std::vector<int>& execs, std::int64_t lhsElem);
    /// Write a lane-uniform Assign's value `v` to element `elem` on its
    /// executors (every other copy goes stale) and on the oracle.
    void storeUniform(const std::vector<int>& execs, std::int64_t elem,
                      double v);
    /// Bytecode engine: the iterations lb, lb + step, ... of strip `s`
    /// (at least one). Each form is evaluated once and then advanced by
    /// its loop-variable coefficient times `step`; executors that do not
    /// move along the loop are computed once. A member instance whose
    /// slots are all valid on its executors runs the VM and
    /// storeUniform; any other takes execUniformBc at the strip's
    /// addresses. The profiler's sample and the accounting stay per
    /// instance, as in execStmt.
    void runStrip(const Stmt* s, StmtPlan& plan, std::int64_t lb,
                  std::int64_t ub, std::int64_t step);
    /// One iteration of Do statement `s`'s body, with the forward-goto
    /// continuation handling.
    void execLoopBody(const Stmt* s);
    /// Loop-end global reduction combines of `s` (a Do statement).
    void runCombines(const Stmt* s);
    /// Profiler: true when this Assign/If instance is the 1 in
    /// StmtProfile::kSampleEvery that is timed (t0 then holds its
    /// start); unprofiled runs pay a null check, not a clock read.
    bool sampleStart(std::chrono::steady_clock::time_point& t0) {
        if (profile_ == nullptr ||
            (sampleTick_++ & (obs::StmtProfile::kSampleEvery - 1)) != 0)
            return false;
        t0 = std::chrono::steady_clock::now();
        return true;
    }
    void sampleEnd(int stmt, std::chrono::steady_clock::time_point t0) {
        profile_->addSample(stmt, std::chrono::duration<double, std::micro>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count());
    }
    /// Set of linear proc ids executing statement `s` now. Returns a
    /// reference to a per-instance scratch (or the constant all-procs
    /// set); valid until the next call.
    [[nodiscard]] const std::vector<int>& executorsOf(const Stmt* s);
    /// Bounds-check every subscript of Assign/If `s` on the oracle: the
    /// index refs, then the fetched refs, then the lhs. Runs before
    /// executorsOf, so no executor set or store row is ever derived
    /// from an out-of-range subscript. The bytecode engine's common case
    /// (no array read inside a subscript, every range satisfied) stays
    /// inline.
    void checkSubscripts(const Stmt* s, const StmtPlan& plan) {
        if (engine_ == SimEngine::Bytecode && plan.indexRefs.empty() &&
            plan.code.subscripts.passes(oracle_))
            return;
        resolveSubscripts(s, plan);
    }
    /// checkSubscripts' out-of-line part. The interp engine resolves the
    /// flat index of every fetched ref and of the lhs here (refFlat_).
    void resolveSubscripts(const Stmt* s, const StmtPlan& plan);
    /// Flat index of `ref` on the oracle. A subscript outside its
    /// declared bounds throws the sim.subscript SimFault naming the
    /// reference, dimension, value and bounds.
    [[nodiscard]] std::int64_t checkedFlatIndex(const Expr* ref) const;
    /// Evaluate `e` on every executor against the frozen pre-statement
    /// state, filling values_. `directRow` >= 0 (relaxed merge,
    /// reduction accumulators only) additionally writes each executor's
    /// result straight to its private accumulator copy, skipping the
    /// ordered post-merge write loop. Returns true when the bytecode
    /// slot pre-scan found every executor valid on every slot: no lane
    /// recorded a pending write or miss, so the merge is a provable
    /// no-op and may be skipped.
    [[nodiscard]] bool evalPhase(StmtPlan& plan,
                                 const std::vector<int>& execs, const Expr* e,
                                 std::int64_t directRow = -1);
    /// Bytecode engine: run the phase chunk over every lane of the
    /// executor set on the register banks, filling values_.
    void runLanes(const StmtPlan& plan, const std::vector<int>& execs);
    /// Bytecode engine: one lane's fetch of a slot its processor does
    /// not hold — pending-copy check, then the per-phase resolved
    /// (value, source) with the transfer recorded. Out of line: cold
    /// next to the contiguous bank fast path.
    double missLaneBc(int proc, const StmtPlan& plan, int slot);
    /// Bytecode engine: each fetch slot's element and bank row
    /// (slotElem_, slotRow_) from its address form.
    void addressSlots(const StmtPlan& plan);
    /// Bytecode engine: flag the slots every executor holds
    /// (slotAllValid_) and resolve every other slot's miss once
    /// (resolveSlotMiss). True when no executor misses any slot.
    bool resolveSlots(StmtPlan& plan, const std::vector<int>& execs);
    /// Bytecode engine: resolve slot's miss once per phase (owner
    /// validity is frozen within a phase, so every missing lane gets the
    /// identical value and source processor), before the lanes run.
    void resolveSlotMiss(StmtPlan& plan, int slot, int firstProc);
    /// First processor of `op`'s source owner set holding a valid copy
    /// of bank row `row` (value to `v`). `srcPlan`: the bytecode engine's
    /// owner plan of the source descriptor (null: walk the trees).
    int holderOf(const CommOp& op, OwnerPlan* srcPlan, std::int64_t row,
                 const Expr* ref, double& v);
    /// Bytecode engine: `a` evaluated over iv_ and the oracle.
    [[nodiscard]] std::int64_t evalAddr(const bc::AddrForm& a) const {
        return bc::evalAddr(a, iv_.data(), oracle_);
    }
    /// Bank row base (element * procCount) of (sym, flat), laid out by
    /// the oracle's Store and bounds-checked through its elemIndexOf.
    [[nodiscard]] std::int64_t soaRowOf(SymbolId sym,
                                        std::int64_t flat) const {
        return oracle_.store().elemIndexOf(sym, flat) * procCount_;
    }
    /// Bank index of processor `proc`'s copy of (name, flat).
    [[nodiscard]] std::int64_t laneOf(int proc, const std::string& name,
                                      std::int64_t flat) const;
    /// Write `v` valid to every processor's copy of element `elem` in
    /// the banks (loop-variable and combine broadcasts).
    void soaBroadcast(std::int64_t elem, double v) {
        const std::int64_t row = elem * procCount_;
        std::fill(soa_.begin() + row, soa_.begin() + row + procCount_, v);
        std::fill(soaValid_.begin() + row,
                  soaValid_.begin() + row + procCount_,
                  static_cast<char>(1));
    }
    /// Apply the phase's deferred store writes and account its recorded
    /// transfers, in observation order.
    void mergePhase();
    /// Evaluate `e` on processor `proc`, triggering communication for
    /// any data the processor does not hold.
    double evalOn(int proc, const Expr* e);
    /// Ensure `proc` holds the value of reference `ref`; fetch from the
    /// owner through the covering comm op otherwise.
    double fetch(int proc, const Expr* ref);
    /// Account one element transfer's message event.
    void noteEvent(const CommOp* op);
    /// Guard accounting of one instance of statement `stmt` in its row
    /// of stmtAcct_.
    void accountExecutors(int stmt, const std::vector<int>& execs);
    /// Derive procMetrics_'s executed/skipped counts, procStmts_ and
    /// (when armed) the profile's counts from the per-statement
    /// accounting. Called at run end (normal and fault exits), where
    /// they must be externally coherent.
    void flushAccounting();
    /// Bytecode engine: the one owner of fully pinned plan `o` whose
    /// subscript values (per grid dim; Partitioned dims are read) are
    /// `subs` — the memoized owner when they repeat.
    [[nodiscard]] int memoOwner(OwnerPlan& o, const std::int64_t* subs);
    /// memoOwner at the subscript values `o`'s forms evaluate to now.
    [[nodiscard]] int oneOwner(OwnerPlan& o);
    /// Owner set of `desc` on the oracle's state. The bytecode engine
    /// passes the descriptor's subscript forms `subs` (one per grid dim,
    /// only Partitioned dims read); the interp engine passes null and
    /// walks the subscript trees.
    void evalDescInto(const RefDesc& desc,
                      const std::vector<bc::AddrForm>* subs,
                      GridSet& out) const;
    /// Relaxed merge: combine one reduction from the per-processor
    /// partial accumulators in linear processor order.
    [[nodiscard]] double combineRelaxed(const CombinePlan& c) const;
    /// True when `op` may combine relaxed (commutative, and exact for
    /// max/min and integer sums).
    [[nodiscard]] static bool relaxedCombinable(ReductionInfo::Op op) {
        return op == ReductionInfo::Op::Sum || op == ReductionInfo::Op::Max ||
               op == ReductionInfo::Op::Min;
    }

    const SpmdLowering& low_;
    const Program& prog_;
    Interpreter oracle_;
    int procCount_;
    int elemBytes_;
    SimEngine engine_;
    bool relaxed_;
    TargetKind targetKind_;
    std::int64_t barrierEvents_ = 0;  ///< shm only; see barrierEvents()
    std::vector<ProcSimMetrics> procMetrics_;
    std::int64_t transfers_ = 0;
    std::int64_t procStmts_ = 0;
    double wallSec_ = 0.0;
    InternedEventSet events_;
    std::vector<std::int64_t> eventsPerOp_;  ///< by CommOp::id (dense)
    std::vector<std::int64_t> elemsPerOp_;   ///< by CommOp::id (dense)
    /// By CommOp::id: the statement whose fetches (a Do: whose loop-end
    /// combine) move the op's data, -1 for none — how the profile
    /// attributes elemsPerOp_/eventsPerOp_ to statements.
    std::vector<int> opStmt_;

    // --- precomputed execution plan (built once in the constructor) ---
    std::vector<StmtPlan> plans_;               ///< by Stmt::id
    std::vector<const CommOp*> opByRef_;        ///< by Expr::id
    std::vector<std::vector<SymbolId>> opCtxVars_;  ///< by CommOp::id
    std::vector<int> allProcs_;
    /// Bytecode compile-side IR (affine term lists); owns nothing the
    /// compiled StmtCodes point at — safe to keep for arena statistics.
    Arena bcArena_;
    int maxRegs_ = 0;  ///< widest chunk register file across statements

    // --- per-instance scratch (no per-statement allocs) ---
    std::vector<int> execsScratch_;
    GridSet gsScratch_;               ///< executor and owner sets
    std::vector<int> coordsScratch_;  ///< grid-iteration scratch
    std::vector<char> flagsScratch_;
    std::vector<double> values_;
    std::vector<std::int64_t> refFlat_;  ///< by Expr::id, per instance
    /// The phase's deferred fetched-copy writes and observed transfers,
    /// drained by mergePhase.
    std::vector<PendingWrite> pending_;
    std::vector<MissRecord> misses_;
    /// Bytecode engine: the iteration vector, an int64 copy of every
    /// integer DO variable no Assign writes, by SymbolId (other entries
    /// unused). Do loops set it beside the oracle; run() seeds it.
    std::vector<std::int64_t> iv_;
    std::vector<char> isIv_;
    /// Strip scratch: each form's current value and per-iteration step.
    std::vector<std::int64_t> stripCur_;
    std::vector<std::int64_t> stripDelta_;
    std::vector<std::int64_t> subsScratch_;  ///< oneOwner's values
    /// Bytecode engine: SoA register banks, numRegs x procCount doubles
    /// (lane stride is the processor count).
    std::vector<double> regs_;
    std::vector<double> oracleRegs_;  ///< scalar VM register scratch
    /// The per-processor state (both engines): element e of processor p
    /// lives at [e * procCount + p] (e = the oracle's elemIndexOf), so a
    /// fetch reads procCount contiguous lanes and invalidating every
    /// copy of an element is a procCount-byte memset.
    std::vector<double> soa_;
    std::vector<char> soaValid_;
    /// Per-phase slot scratch: bank row base / oracle element index of
    /// each fetch slot, and the once-per-phase miss memo (resolved
    /// value + source processor).
    std::vector<std::int64_t> slotRow_;
    std::vector<std::int64_t> slotElem_;
    std::vector<double> slotMissV_;
    std::vector<int> slotMissSrc_;
    std::vector<char> slotMissResolved_;
    /// Per-phase: every executor lane of the slot held a valid copy at
    /// the pre-scan (validity is frozen within the phase), so the VM
    /// loads the slot with one contiguous row copy.
    std::vector<char> slotAllValid_;
    /// Guard accounting, one row of procCount + 2 counters per Stmt::id
    /// (a statement's counters share a cache line for typical proc
    /// counts): executions on each processor, then instances, then
    /// instances that ran on every processor (one counter, no per-proc
    /// sweep; flushAccounting folds them into the per-proc columns). A
    /// processor's skipped count is all instances minus its executions.
    std::vector<std::int64_t> stmtAcct_;
    /// executorsOf scratch for singleton owner sets (always size 1).
    std::vector<int> singleProcScratch_;
    /// Per-merge noteEvent memo: an op whose stamp equals the current
    /// merge's stamp already recorded its event this merge (the event
    /// context is frozen for the whole merge, so a repeat is a
    /// guaranteed duplicate).
    std::vector<std::uint64_t> opStamp_;
    std::uint64_t mergeStamp_ = 0;
    /// Per-op noteEvent memo: the context the op recorded last, and
    /// whether there is one. A repeat skips the interned sets.
    std::vector<std::vector<std::int64_t>> ctxMemo_;
    std::vector<char> ctxMemoSet_;
    /// Relaxed merge: loop-entry accumulator snapshot by CommOp id.
    std::vector<double> combineInit_;

    // --- per-statement profiler (null when not opted in) ---
    std::unique_ptr<obs::StmtProfile> profile_;
    std::uint32_t sampleTick_ = 0;  ///< profiled Assign/If instances so far
};

}  // namespace phpf
