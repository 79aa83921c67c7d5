// Cold vs warm compile-service runs over the full Table 1/2/3 matrix.
//
// The matrix is every (program, grid, option variant) the paper's
// tables visit: TOMCATV × 3 compiler levels × {1,2,4,8,16} procs,
// DGEFA × 2 alignment variants × {1,2,4,8,16}, APPSP × 5 variants ×
// {2,4,8,16}. A cold pass compiles all of it through a fresh service
// (every request a miss); a warm pass replays the identical requests
// against the now-populated artifact cache. The warm pass must be
// measurably faster — that is the acceptance test of the
// content-addressed cache — and every warm artifact must be the exact
// object the cold pass produced.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "service/compile_service.h"

namespace {

using namespace phpf;
using namespace phpf::bench;

std::vector<int> grid2d(int procs) {
    int a = 1, b = procs;
    while (a * 2 <= b / 2) {
        a *= 2;
        b /= 2;
    }
    return {a, b};
}

/// One request per cell of Tables 1-3 (sizes scaled down so a cold
/// pass stays in benchmark time; the request *mix* is the real thing).
std::vector<service::CompileRequest> tableMatrix() {
    std::vector<service::CompileRequest> reqs;
    for (int procs : {1, 2, 4, 8, 16}) {
        for (int variant : {0, 1, 2}) {
            service::CompileRequest r;
            r.name = "table1/tomcatv";
            r.build = [] { return programs::tomcatv(129, 10); };
            r.target.gridExtents = {procs};
            if (variant == 0) r.passes.mapping.privatization = false;
            if (variant == 1)
                r.passes.mapping.alignPolicy =
                    MappingOptions::AlignPolicy::ProducerOnly;
            reqs.push_back(std::move(r));
        }
        for (bool align : {false, true}) {
            service::CompileRequest r;
            r.name = "table2/dgefa";
            r.build = [] { return programs::dgefa(100); };
            r.target.gridExtents = {procs};
            r.passes.mapping.reductionAlignment = align;
            reqs.push_back(std::move(r));
        }
    }
    for (int procs : {2, 4, 8, 16}) {
        for (int variant = 0; variant < 5; ++variant) {
            const bool oneD = variant < 2;
            service::CompileRequest r;
            r.name = "table3/appsp";
            r.build = [oneD] { return programs::appsp(16, 16, 16, 5, oneD); };
            r.target.gridExtents =
                oneD ? std::vector<int>{procs} : grid2d(procs);
            r.target.costModel.combineMessages = variant == 4;
            r.passes.mapping.arrayPrivatization =
                variant == 1 || variant >= 3;
            r.passes.mapping.partialPrivatization = variant >= 3;
            reqs.push_back(std::move(r));
        }
    }
    return reqs;
}

double runMatrix(service::CompileService& svc,
                 const std::vector<service::CompileRequest>& reqs,
                 int* hits) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& req : reqs) {
        const service::CompileResult r = svc.compile(req);
        if (r.status != service::CompileStatus::Ok) {
            std::fprintf(stderr, "service bench: %s failed: %s\n",
                         req.name.c_str(), r.error.c_str());
            std::abort();
        }
        if (hits != nullptr && r.cacheHit) ++*hits;
        benchmark::DoNotOptimize(r.artifact->cost.totalSec());
    }
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count()) /
           1e6;
}

/// Headline cold-vs-warm comparison, printed like the paper tables.
void printColdWarm() {
    const auto reqs = tableMatrix();
    service::CompileService svc;
    int coldHits = 0, warmHits = 0;
    const double coldSec = runMatrix(svc, reqs, &coldHits);
    const double warmSec = runMatrix(svc, reqs, &warmHits);
    std::printf(
        "\ncompile service, full Table 1-3 matrix (%zu requests)\n"
        "  cold: %8.3f s   (%d cache hits)\n"
        "  warm: %8.3f s   (%d cache hits)   speedup %.1fx\n\n",
        reqs.size(), coldSec, coldHits, warmSec, warmHits,
        warmSec > 0 ? coldSec / warmSec : 0.0);
    BenchReporter::instance().setHeader("service cold vs warm",
                                        {"cold_sec", "warm_sec"});
    BenchReporter::instance().row(static_cast<int>(reqs.size()),
                                  {coldSec, warmSec});
    if (warmHits != static_cast<int>(reqs.size())) {
        std::fprintf(stderr,
                     "service bench: warm pass expected %zu hits, got %d\n",
                     reqs.size(), warmHits);
        std::abort();
    }
}

void BM_ServiceCold(benchmark::State& state) {
    const auto reqs = tableMatrix();
    for (auto _ : state) {
        service::CompileService svc;  // fresh cache every iteration
        runMatrix(svc, reqs, nullptr);
    }
}
BENCHMARK(BM_ServiceCold)->Unit(benchmark::kMillisecond);

void BM_ServiceWarm(benchmark::State& state) {
    const auto reqs = tableMatrix();
    service::CompileService svc;
    runMatrix(svc, reqs, nullptr);  // populate once
    for (auto _ : state) runMatrix(svc, reqs, nullptr);
}
BENCHMARK(BM_ServiceWarm)->Unit(benchmark::kMillisecond);

/// Async submission of the whole matrix on the service worker pool —
/// exercises queueing and concurrent misses on a shared cache.
void BM_ServiceSubmitAll(benchmark::State& state) {
    const auto reqs = tableMatrix();
    for (auto _ : state) {
        service::CompileService svc;
        std::vector<std::shared_future<service::CompileResult>> futs;
        futs.reserve(reqs.size());
        for (const auto& req : reqs) futs.push_back(svc.submit(req));
        for (auto& f : futs) benchmark::DoNotOptimize(f.get().status);
    }
}
BENCHMARK(BM_ServiceSubmitAll)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    printColdWarm();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
