// perfbench: the repository's end-to-end job benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// One closed-loop client thread runs jobs of the named workload for S
// seconds, checks every job's outputs, and prints one JSON object as its
// last line of output. With --trace 0 it reports the end-to-end metrics
// over the jobs of the clean timing windows (see cleanWindows), running
// on until those hold kMinJobs jobs. With --trace 1 it alternates traced
// and untraced batches, prints the per-kernel layer ledger, writes the
// spans to FILE, and reports the per-layer metrics. Exit status 1 when
// any job failed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "jobs.h"
#include "ledger.h"

namespace {

using namespace perfbench;

/// Jobs a timed run completes at the least: p99 then has ten beyond it.
constexpr std::size_t kMinJobs = 1000;
/// Set-ups before the first job; one more follows every window, and
/// setup_s is the median of all of them.
constexpr int kSetups = 5;
/// Length of one timing window (it closes at the first batch boundary
/// after this).
constexpr std::int64_t kWindowNs = 250'000'000;
/// A window whose median job is slower than this factor times the median
/// of all window medians ran through a host stall.
constexpr double kSlowFactor = 1.5;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string traceOut;
};

bool parseArgs(int argc, char** argv, Args* a) {
    bool haveWorkload = false, haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            a->workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            a->seed = std::strtoull(val.c_str(), &end, 10);
            haveSeed = end != val.c_str() && *end == '\0';
        } else if (key == "--seconds") {
            a->seconds = std::strtod(val.c_str(), &end);
            haveSeconds = end != val.c_str() && *end == '\0' && a->seconds > 0;
        } else if (key == "--trace") {
            a->trace = val == "1";
            haveTrace = val == "0" || val == "1";
        } else if (key == "--trace-out") {
            a->traceOut = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload && haveSeed && haveSeconds && haveTrace;
}

/// Nearest-rank quantile of sorted samples.
double quantile(const std::vector<double>& sorted, double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return quantile(v, 0.5);
}

/// The job times of the clean windows, sorted. On a shared host every
/// job can run about 1.5x slower for seconds at a time, whatever the code
/// does (not as lost CPU time: the thread keeps its CPU, each instruction
/// is slower); such stretches are kept, since how much of a run they
/// cover varies less than any fast subset of the run. A window is clean
/// when its median job time is within kSlowFactor of the median of all
/// window medians; that drops only rarer, deeper stalls. A change that
/// slows every job slows every window, the reference with them, so it
/// still shows.
std::vector<double> cleanWindows(const std::vector<std::vector<double>>& windows) {
    std::vector<double> medians;
    for (const auto& w : windows)
        if (!w.empty()) medians.push_back(median(w));
    std::vector<double> kept;
    if (medians.empty()) return kept;
    const double cut = kSlowFactor * median(medians);
    for (const auto& w : windows)
        if (!w.empty() && median(w) <= cut) kept.insert(kept.end(), w.begin(), w.end());
    std::sort(kept.begin(), kept.end());
    return kept;
}

struct Metric {
    std::string name, unit;
    double value;
};

void printResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                     "[--trace-out FILE]\n");
        return 2;
    }

    // Set-up, several times; the last instance runs the jobs.
    std::unique_ptr<Workload> w;
    std::vector<double> setupSec;
    const auto timedSetup = [&] {
        const std::int64_t t0 = nowNs();
        std::unique_ptr<Workload> fresh = makeWorkload(args.workload);
        if (fresh != nullptr) fresh->setup(args.seed);
        setupSec.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        return fresh;
    };
    for (int k = 0; k < kSetups; ++k) {
        w.reset();
        w = timedSetup();
        if (w == nullptr) {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
            return 2;
        }
    }

    std::int64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    Counts counts;
    try {
        failed += w->warmup(&counts, &errors, &attempted);
    } catch (const std::exception& e) {
        errors.push_back(std::string("warm-up threw: ") + e.what());
        ++failed;
    }

    // The timed loop, in windows of a quarter second or more that close
    // at batch boundaries. Between windows the run sets up once more (untimed for
    // the jobs), so setup_s samples the whole run, not one instant.
    Recorder rec(false);
    std::vector<std::vector<double>> windows;  // untraced job ms per window
    std::vector<double> tracedMs;
    std::int64_t hits0 = 0, requests0 = 0, evictions0 = 0;
    w->serviceStats(&hits0, &requests0, &evictions0);
    const std::int64_t start = nowNs();
    const auto elapsed = [&] { return static_cast<double>(nowNs() - start) / 1e9; };
    bool traceBatch = false;
    for (;;) {
        windows.emplace_back();
        const std::int64_t windowStart = nowNs();
        while (nowNs() - windowStart < kWindowNs) {
            rec.setTracing(traceBatch);
            for (int i : w->nextBatch()) {
                ++attempted;
                JobResult r;
                try {
                    r = w->runJob(i, rec);
                } catch (const std::exception& e) {
                    r.ok = false;
                    r.error = std::string("job threw: ") + e.what();
                }
                if (!r.ok) {
                    ++failed;
                    if (errors.size() < 20) errors.push_back(r.error);
                    continue;
                }
                (traceBatch ? tracedMs : windows.back()).push_back(static_cast<double>(r.ns) / 1e6);
            }
            traceBatch = args.trace && !traceBatch;
        }
        timedSetup();
        const double t = elapsed();
        if (t >= 3 * args.seconds) break;  // a hard stop whatever the job count
        if (t >= args.seconds && (args.trace || cleanWindows(windows).size() >= kMinJobs)) break;
    }
    const double wallSec = elapsed();
    std::int64_t hits1 = 0, requests1 = 0, evictions1 = 0;
    w->serviceStats(&hits1, &requests1, &evictions1);

    for (const std::string& e : errors) std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
    const std::vector<double> kept = cleanWindows(windows);
    std::vector<double> untracedMs;
    for (const auto& win : windows) untracedMs.insert(untracedMs.end(), win.begin(), win.end());
    std::sort(untracedMs.begin(), untracedMs.end());
    std::sort(tracedMs.begin(), tracedMs.end());
    if (kept.empty()) {
        std::fprintf(stderr, "perfbench: no job completed\n");
        return 1;
    }
    const std::size_t n = kept.size();
    const std::size_t beyondP99 = n - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
    double sumMs = 0;
    for (double ms : kept) sumMs += ms;
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu: %zu untraced jobs in %zu windows, %zu kept (%zu beyond "
                 "p99), %zu traced, %.1f s wall, %zu set-ups, failed_frac %.6f\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 untracedMs.size(), windows.size(), n, beyondP99, tracedMs.size(), wallSec,
                 setupSec.size(),
                 attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);

    std::vector<Metric> metrics;
    if (!args.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics = {
            {"job_ms_p50", "ms", quantile(kept, 0.50)},
            {"job_ms_p99", "ms", quantile(kept, 0.99)},
            {"jobs_per_s", "1/s", static_cast<double>(n) / (sumMs / 1e3)},
            {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
            {"setup_s", "s", median(setupSec)},
        };
    } else {
        const std::vector<std::string> labels = w->ledgerRows();
        const std::vector<LedgerRow> ledger = buildLedger(rec.spans(), labels);
        printLedger(stdout, ledger);
        if (!args.traceOut.empty() && !writeTrace(args.traceOut, rec.spans(), labels)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", args.traceOut.c_str());
            ++failed;
        }
        const LedgerRow& all = ledger.back();
        std::int64_t calls[kLayerCount] = {};
        for (const Span& s : rec.spans())
            if (s.parent >= 0) ++calls[s.layer];
        const auto perCallUs = [&](int l) {
            return calls[l] ? static_cast<double>(all.layerNs[l]) / static_cast<double>(calls[l]) / 1e3
                            : 0.0;
        };
        const auto ratio = [](double a, double b) { return b != 0 ? a / b : 0.0; };
        for (int l = 0; l < kLayerCount; ++l)
            metrics.push_back({std::string(layerName(l)) + "_us", "us", perCallUs(l)});
        metrics.push_back({"service.hit_ratio", "ratio",
                           ratio(static_cast<double>(hits1 - hits0),
                                 static_cast<double>(requests1 - requests0))});
        metrics.push_back({"service.evictions", "count", static_cast<double>(evictions1 - evictions0)});
        metrics.push_back({"privatize.decisions", "count", static_cast<double>(counts.decisions)});
        metrics.push_back({"spmd.comm_ops", "count", static_cast<double>(counts.commOps)});
        metrics.push_back({"spmd.model_events", "count", static_cast<double>(counts.modelEvents)});
        metrics.push_back({"runtime.message_events", "count", static_cast<double>(counts.messageEvents)});
        metrics.push_back({"runtime.element_transfers", "count",
                           static_cast<double>(counts.elementTransfers)});
        metrics.push_back({"runtime.proc_stmts", "count", static_cast<double>(counts.procStmts)});
        metrics.push_back({"driver.report_bytes", "bytes", static_cast<double>(counts.reportBytes)});
        metrics.push_back({"runtime.ns_per_proc_stmt", "ns",
                           ratio(static_cast<double>(all.layerNs[kSimRun]),
                                 static_cast<double>(w->tracedProcStmts))});
        metrics.push_back({"runtime.model_event_ratio", "ratio",
                           ratio(static_cast<double>(counts.modelEvents),
                                 static_cast<double>(counts.messageEvents))});
        metrics.push_back({"bench.unattributed_frac", "ratio",
                           ratio(static_cast<double>(all.unattributedNs()),
                                 static_cast<double>(all.wallNs))});
        metrics.push_back({"bench.trace_overhead_ms", "ms",
                           tracedMs.empty() ? 0.0
                                            : quantile(tracedMs, 0.5) - quantile(untracedMs, 0.5)});
    }
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}
