#pragma once

// The three workloads. Each builds its jobs in setup(), runs every
// distinct job once in warmup() to record the reference values the timed
// jobs are checked against, and then runs one job per runJob() call,
// calling the library's public API in the order phpfc and the compile
// service use it, one Recorder::layer() per call.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

/// Per-workload counts, summed over the workload's distinct jobs once
/// (so they repeat exactly between runs of one seed).
struct Counts {
    std::int64_t decisions = 0;         ///< mapping DecisionRecords
    std::int64_t commOps = 0;           ///< lowered communication ops
    std::int64_t modelEvents = 0;       ///< predictCost message events
    std::int64_t messageEvents = 0;     ///< simulated message events
    std::int64_t elementTransfers = 0;  ///< simulated element transfers
    std::int64_t procStmts = 0;         ///< simulated statements, all procs
    std::int64_t reportBytes = 0;       ///< run-report bytes, wall-clock fields left out
};

struct JobResult {
    bool ok = true;
    std::int64_t ns = 0;  ///< job wall time
    std::string error;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Build the job list, printed sources, seeded inputs and service.
    virtual void setup(std::uint64_t seed) = 0;
    /// Run every distinct job once, untimed: record reference values and
    /// the counts. Adds the jobs it ran to `attempted`; returns the
    /// failures, each described in `errors`.
    virtual int warmup(Counts* counts, std::vector<std::string>* errors,
                       std::int64_t* attempted) = 0;
    /// Job indices of the next batch (one seeded pass over the cells, or
    /// one block of service draws).
    virtual std::vector<int> nextBatch() = 0;
    /// Run job `i` as one timed job, then check its outputs.
    virtual JobResult runJob(int i, Recorder& rec) = 0;
    /// Ledger row labels, indexed by the row a job records.
    [[nodiscard]] virtual std::vector<std::string> ledgerRows() const = 0;

    /// Simulated statements of the traced jobs run so far.
    std::int64_t tracedProcStmts = 0;
    /// Cache hits / requests / evictions seen by the service so far (0
    /// for workloads without a service).
    virtual void serviceStats(std::int64_t* hits, std::int64_t* requests,
                              std::int64_t* evictions) const {
        *hits = *requests = *evictions = 0;
    }
};

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name);

}  // namespace perfbench
