// Tests for the compile service: cache-key canonicalization (what must
// collide, what must not), concurrent identical misses, LRU capacity
// and eviction, the never-cache-a-failure rule, the error-code labels,
// the stage-oriented pipeline, the batch runner, and bit-identical
// cached-vs-fresh results over the paper's Table 1/2/3 variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "ir/printer.h"
#include "programs/programs.h"
#include "service/artifact_cache.h"
#include "service/batch.h"
#include "service/compile_service.h"
#include "service/fingerprint.h"

namespace phpf {
namespace {

using service::ArtifactCache;
using service::CompileArtifact;
using service::CompileRequest;
using service::CompileResult;
using service::CompileService;
using service::CompileStatus;
using service::ErrorCode;

// ---------------------------------------------------------------------
// Cache-key canonicalization: requests that MUST share one entry.

TEST(Fingerprint, DefaultedAndExplicitOptionsCollide) {
    TargetConfig defaulted;
    defaulted.gridExtents = {4};

    TargetConfig spelledOut;
    spelledOut.gridExtents = {4};
    spelledOut.costModel = CostModel{};  // every field at its default

    PassOptions p1;
    PassOptions p2;
    p2.mapping = MappingOptions{};

    EXPECT_EQ(service::canonicalOptionsKey(defaulted, p1),
              service::canonicalOptionsKey(spelledOut, p2));
}

TEST(Fingerprint, SourceFormattingDoesNotSplitTheFingerprint) {
    // The fingerprint hashes the canonical printed program, so
    // whitespace/comment differences in the source text collide.
    CompileService svc;
    CompileRequest a;
    a.source = R"(
program f
  parameter (n = 16)
  real A(n), B(n)
!hpf$ distribute A(block)
!hpf$ align B(i) with A(i)
  do i = 2, n-1
    A(i) = B(i-1)
  end do
end
)";
    CompileRequest b;
    b.source = R"(
program f
  parameter (n = 16)

  real A(n), B(n)
! formatting and comments must not split the cache key
!hpf$ distribute A(block)
!hpf$ align B(i) with A(i)
  do i = 2, n - 1
      A(i)   =   B(i - 1)
  end do
end
)";
    b.target = a.target;
    const CompileResult ra = svc.compile(a);
    const CompileResult rb = svc.compile(b);
    ASSERT_EQ(ra.status, CompileStatus::Ok) << ra.error;
    ASSERT_EQ(rb.status, CompileStatus::Ok) << rb.error;
    EXPECT_EQ(ra.key, rb.key);
    EXPECT_TRUE(rb.cacheHit);
    EXPECT_EQ(ra.artifact.get(), rb.artifact.get());
}

TEST(Fingerprint, BuilderAndSourceProvenanceCollide) {
    // The same program arriving as IR (builder) and as parsed source
    // must hash identically — the fingerprint is over canonical IR
    // text, not over provenance.
    Program built = programs::fig1(16);
    built.finalize();
    DiagEngine diags;
    Parser parser(printProgram(built), diags);
    Program parsed = parser.parse();
    ASSERT_FALSE(diags.hasErrors()) << diags.dump();
    parsed.finalize();
    EXPECT_EQ(service::programFingerprint(built),
              service::programFingerprint(parsed));
}

// ---------------------------------------------------------------------
// Cache-key canonicalization: requests that must NOT share an entry.

TEST(Fingerprint, GridShapeSplitsTheKey) {
    // {4} and {2,2} have equal processor counts but different mapping
    // spaces — Table 3's 1-D vs 2-D distinction depends on this.
    TargetConfig flat;
    flat.gridExtents = {4};
    TargetConfig square;
    square.gridExtents = {2, 2};
    PassOptions p;
    EXPECT_NE(service::canonicalOptionsKey(flat, p),
              service::canonicalOptionsKey(square, p));
}

TEST(Fingerprint, CostModelAndMappingVariantsSplitTheKey) {
    TargetConfig base;
    base.gridExtents = {4};
    PassOptions p;
    const std::string baseKey = service::canonicalOptionsKey(base, p);

    TargetConfig elem = base;
    elem.costModel.elemBytes = 4;
    EXPECT_NE(service::canonicalOptionsKey(elem, p), baseKey);

    TargetConfig combine = base;
    combine.costModel.combineMessages = true;
    EXPECT_NE(service::canonicalOptionsKey(combine, p), baseKey);

    PassOptions producerOnly;
    producerOnly.mapping.alignPolicy =
        MappingOptions::AlignPolicy::ProducerOnly;
    EXPECT_NE(service::canonicalOptionsKey(base, producerOnly), baseKey);

    PassOptions noPriv;
    noPriv.mapping.privatization = false;
    EXPECT_NE(service::canonicalOptionsKey(base, noPriv), baseKey);

    PassOptions noInduction;
    noInduction.rewriteInduction = false;
    EXPECT_NE(service::canonicalOptionsKey(base, noInduction), baseKey);
}

TEST(Fingerprint, SimEngineAndRelaxedMergeSplitTheKey) {
    // The engine and the relaxed-merge mode are artifact identity:
    // a cached interp artifact must not satisfy a bytecode request, and
    // relaxed merges are numerically distinct for float SUM reductions.
    // Near-miss: every other field equal, exactly one flag flipped.
    TargetConfig base;
    base.gridExtents = {4};
    PassOptions p;
    p.simEngine = SimEngine::Bytecode;
    const std::string baseKey = service::canonicalOptionsKey(base, p);

    PassOptions interp = p;
    interp.simEngine = SimEngine::Interp;
    EXPECT_NE(service::canonicalOptionsKey(base, interp), baseKey);

    PassOptions relaxed = p;
    relaxed.relaxedMerge = true;
    EXPECT_NE(service::canonicalOptionsKey(base, relaxed), baseKey);
}

TEST(Fingerprint, TargetKindSplitsTheKey) {
    // Identical program/options differing ONLY in the target kind must
    // produce distinct keys: mp and shm artifacts differ in emitted
    // text, predicted tables, and simulation accounting.
    TargetConfig mp;
    mp.gridExtents = {4};
    TargetConfig shm = mp;
    shm.targetKind = TargetKind::SharedMemory;
    PassOptions p;
    EXPECT_NE(service::canonicalOptionsKey(mp, p),
              service::canonicalOptionsKey(shm, p));

    // The shared-memory machine parameters are part of shm identity...
    TargetConfig slowBarrier = shm;
    slowBarrier.shmModel.barrierSec *= 2.0;
    EXPECT_NE(service::canonicalOptionsKey(slowBarrier, p),
              service::canonicalOptionsKey(shm, p));

    // ...but an mp request's key must NOT depend on a model it never
    // consults — tweaking shmModel under mp must not split the entry.
    TargetConfig mpTweaked = mp;
    mpTweaked.shmModel.barrierSec *= 2.0;
    EXPECT_EQ(service::canonicalOptionsKey(mpTweaked, p),
              service::canonicalOptionsKey(mp, p));
}

TEST(Fingerprint, DifferentProgramsSplitTheFingerprint) {
    Program a = programs::fig1(16);
    a.finalize();
    Program b = programs::fig1(32);  // same shape, different extent
    b.finalize();
    EXPECT_NE(service::programFingerprint(a), service::programFingerprint(b));
}

// Two sources that differ only past a REAL literal's sixth significant
// digit are different programs: different keys, and the second request
// is a miss whose SPMD text carries its own literal.
TEST(Fingerprint, RealLiteralDigitsSplitTheKey) {
    const auto source = [](const std::string& factor) {
        return "program k\n  real a(8)\n  do i = 1, 8\n    a(i) = a(i) * " +
               factor + "\n  end do\nend\n";
    };
    const Program a = parseProgramOrDie(source("1.0000002"));
    const Program b = parseProgramOrDie(source("1.0000003"));
    EXPECT_NE(service::programFingerprint(a), service::programFingerprint(b));

    CompileService svc;
    CompileRequest first, second;
    first.source = source("1.0000002");
    second.source = source("1.0000003");
    const CompileResult r1 = svc.compile(first);
    const CompileResult r2 = svc.compile(second);
    ASSERT_EQ(r1.status, CompileStatus::Ok) << r1.error;
    ASSERT_EQ(r2.status, CompileStatus::Ok) << r2.error;
    EXPECT_NE(r1.key, r2.key);
    EXPECT_FALSE(r2.cacheHit);
    EXPECT_NE(r2.artifact->spmdText.find("1.0000003"), std::string::npos)
        << r2.artifact->spmdText;
}

// The canonical text, and so the cache key, of every builtin kernel (at
// its batch default size) and of the three Table kernels at paper size.
// A printer change that moves one re-keys that kernel's cached entries.
TEST(Fingerprint, BuiltinKernelFingerprintsArePinned) {
    const std::vector<std::pair<std::string, std::string>> builtins = {
        {"fig1", "p55f31792298f7f67a6441500d1189937"},
        {"fig2", "p30ff0897238f0d0f8c428a4fb8729adf"},
        {"fig4", "pd9eae6e06c65d241694228ebdb2a1991"},
        {"fig5", "p0f919e2b6410f96991bc49bde56cf719"},
        {"fig6", "p2b892b84e1c40982712fa230b8c03ed2"},
        {"fig7", "p16e8cc3254ea2a7171fb3af3b74e6281"},
        {"adi", "p9a280d2a885e4977e8825d91c382b107"},
        {"dgefa", "p7d547bf04bd9c1992f5304d8f20621a9"},
        {"tomcatv", "p6bf4acfe07c9a2c7a1b0ce1d0c7047b7"},
        {"appsp", "p7940c64ad8ae15828b4ea7ae862f8732"},
        {"appsp2d", "pd56129b3a957d4b04acac59270825440"},
    };
    ASSERT_EQ(service::builtinProgramNames().size(), builtins.size());
    for (const auto& [name, fingerprint] : builtins) {
        service::BatchJob job;
        job.program = name;
        CompileRequest req;
        std::string err;
        ASSERT_TRUE(service::requestOfJob(job, &req, &err)) << err;
        EXPECT_EQ(service::programFingerprint(req.build()), fingerprint)
            << name;
    }
    EXPECT_EQ(service::programFingerprint(programs::tomcatv(513, 100)),
              "padc902e2a9ecd5f6262b67fe278e2166");
    EXPECT_EQ(service::programFingerprint(programs::dgefa(1000)),
              "pa8f4bc457dfba794ae0adc60241182a4");
    EXPECT_EQ(service::programFingerprint(
                  programs::appsp(64, 64, 64, 50, true)),
              "p6bc98e346c97ba91e647899229bd6001");
}

// ---------------------------------------------------------------------
// Service behavior.

CompileRequest fig1Request(int n = 16) {
    CompileRequest req;
    req.build = [n] { return programs::fig1(n); };
    req.target.gridExtents = {4};
    return req;
}

TEST(CompileService, MissThenHitReturnsTheSameArtifact) {
    CompileService svc;
    const CompileResult cold = svc.compile(fig1Request());
    ASSERT_EQ(cold.status, CompileStatus::Ok) << cold.error;
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_GT(cold.compileUs, 0);

    const CompileResult warm = svc.compile(fig1Request());
    ASSERT_EQ(warm.status, CompileStatus::Ok);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.compileUs, 0);
    EXPECT_EQ(cold.artifact.get(), warm.artifact.get());

    const service::ServiceStats st = svc.stats();
    EXPECT_EQ(st.requests, 2);
    EXPECT_EQ(st.compiles, 1);
    EXPECT_EQ(st.cache.hits, 1);
    EXPECT_EQ(st.cache.misses, 1);
}

TEST(CompileService, ParseErrorsSurfaceAndAreNotCached) {
    CompileService svc;
    CompileRequest req;
    req.source = "program broken\n  do i = \nend\n";  // malformed do header
    const CompileResult r = svc.compile(req);
    EXPECT_EQ(r.status, CompileStatus::ParseError);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.artifact, nullptr);
    EXPECT_EQ(svc.stats().parseErrors, 1);
    EXPECT_EQ(svc.stats().cache.size, 0u);
}

/// `report` without its per-pass wall times: two compiles of one
/// request agree on everything else.
std::string reportWithoutPasses(const obs::Json& report) {
    obs::Json out = obs::Json::object();
    for (const std::string& k : report.keys())
        if (k != "passes") out.set(k, report.at(k));
    return out.dump();
}

TEST(CompileService, TwoConcurrentIdenticalMissesAgreeAndCacheOnce) {
    CompileService svc;
    // Both threads rendezvous inside the builder, so they fingerprint
    // the same request at the same time. Each may miss and compile (the
    // service does not coalesce), or the later one may hit what the
    // earlier one published; either way the results agree and the cache
    // holds one entry.
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    std::atomic<int> builds{0};
    CompileRequest req;
    req.target.gridExtents = {4};
    req.build = [&] {
        builds.fetch_add(1);
        {
            std::unique_lock<std::mutex> lock(mu);
            ++arrived;
            cv.notify_all();
            cv.wait(lock, [&] { return arrived >= 2; });
        }
        return programs::tomcatv(129, 20);
    };

    CompileResult r1, r2;
    std::thread t1([&] { r1 = svc.compile(req); });
    std::thread t2([&] { r2 = svc.compile(req); });
    t1.join();
    t2.join();

    ASSERT_EQ(r1.status, CompileStatus::Ok) << r1.error;
    ASSERT_EQ(r2.status, CompileStatus::Ok) << r2.error;
    EXPECT_EQ(builds.load(), 2);
    EXPECT_EQ(r1.key, r2.key);
    EXPECT_EQ(r1.artifact->cost.computeSec, r2.artifact->cost.computeSec);
    EXPECT_EQ(r1.artifact->cost.commSec, r2.artifact->cost.commSec);
    EXPECT_EQ(r1.artifact->cost.messageEvents, r2.artifact->cost.messageEvents);
    EXPECT_EQ(r1.artifact->cost.commBytes, r2.artifact->cost.commBytes);
    EXPECT_EQ(reportWithoutPasses(r1.artifact->runReport),
              reportWithoutPasses(r2.artifact->runReport));
    const service::ServiceStats st = svc.stats();
    EXPECT_EQ(st.cache.size, 1u);
    EXPECT_GE(st.compiles, 1);
    EXPECT_LE(st.compiles, 2);
    EXPECT_EQ(st.compiles + st.cache.hits, 2);
}

TEST(CompileService, ProgramFaultIsNeverCached) {
    // Unseeded Fig. 2 reads H(i,0) in its profiled simulation: both of
    // two identical requests must run and fail on their own. A cache
    // serving the first failure would make the second a hit.
    service::ServiceConfig cfg;
    cfg.workers = 1;
    CompileService svc(cfg);
    CompileRequest req;
    req.name = "fig2";
    req.build = [] { return programs::fig2(16); };
    req.target.gridExtents = {4};
    req.profile = true;
    for (int i = 0; i < 2; ++i) {
        const CompileResult r = svc.compile(req);
        EXPECT_EQ(r.status, CompileStatus::Error) << i;
        EXPECT_EQ(r.code, ErrorCode::ProgramFault) << i;
        EXPECT_FALSE(r.cacheHit) << i;
        EXPECT_EQ(r.artifact, nullptr) << i;
    }
    EXPECT_EQ(svc.stats().errors, 2);
    EXPECT_EQ(svc.stats().cache.hits, 0);
    EXPECT_EQ(svc.stats().cache.size, 0u);
}

TEST(ErrorCodeTaxonomy, NamesAreStable) {
    // Batch rows and logs carry these labels; scripts match on them.
    const std::pair<ErrorCode, const char*> names[] = {
        {ErrorCode::None, "none"},
        {ErrorCode::ParseError, "parse-error"},
        {ErrorCode::EmptyRequest, "empty-request"},
        {ErrorCode::BuilderFailed, "builder-failed"},
        {ErrorCode::Internal, "internal"},
        {ErrorCode::ProgramFault, "program-fault"},
    };
    for (const auto& [code, name] : names)
        EXPECT_STREQ(service::errorCodeName(code), name);
}

TEST(CompileService, SubmitRunsOnTheWorkerPool) {
    service::ServiceConfig cfg;
    cfg.workers = 2;
    CompileService svc(cfg);
    std::vector<std::shared_future<CompileResult>> futs;
    futs.reserve(8);
    for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(fig1Request()));
    for (auto& f : futs) {
        const CompileResult r = f.get();
        ASSERT_EQ(r.status, CompileStatus::Ok) << r.error;
    }
    // A job that starts after the first compile is published hits, so
    // only the jobs already running then (one per worker) can miss.
    const service::ServiceStats st = svc.stats();
    EXPECT_EQ(st.requests, 8);
    EXPECT_GE(st.compiles, 1);
    EXPECT_LE(st.compiles, st.workers);
    EXPECT_EQ(st.compiles + st.cache.hits, 8);
    EXPECT_EQ(st.cache.size, 1u);
}

TEST(CompileService, AutoWidthIgnoresSimThreadsVariable) {
    // The auto width follows the hardware alone, clamped to 8.
    const int width = CompileService{}.stats().workers;
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    EXPECT_EQ(width, std::min(std::max(hw, 1), 8));
}

TEST(CompileService, MetricsJsonCarriesCacheAndStageData) {
    CompileService svc;
    ASSERT_EQ(svc.compile(fig1Request()).status, CompileStatus::Ok);
    ASSERT_EQ(svc.compile(fig1Request()).status, CompileStatus::Ok);
    const obs::Json m = svc.metricsJson();
    EXPECT_EQ(m.at("requests").intValue(), 2);
    EXPECT_EQ(m.at("compiles").intValue(), 1);
    EXPECT_EQ(m.at("parse_errors").intValue(), 0);
    EXPECT_EQ(m.at("errors").intValue(), 0);
    EXPECT_EQ(m.at("cache").at("hits").intValue(), 1);
    EXPECT_EQ(m.at("cache").at("misses").intValue(), 1);
    EXPECT_EQ(m.at("cache").at("size").intValue(), 1);
    EXPECT_EQ(m.at("cache").at("capacity").intValue(), 256);
    EXPECT_EQ(m.at("cache").find("shards"), nullptr);
    EXPECT_EQ(m.at("queue").at("depth").intValue(), 0);
    EXPECT_EQ(m.find("registry"), nullptr);
}

TEST(CompileService, HugeCacheCapacitySaturatesInMetrics) {
    // A size_t capacity past INT64_MAX once came out as -1.
    service::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cacheCapacity = SIZE_MAX;
    CompileService svc(cfg);
    EXPECT_EQ(svc.metricsJson().at("cache").at("capacity").intValue(),
              INT64_MAX);
}

// ---------------------------------------------------------------------
// Artifact cache.

TEST(ArtifactCache, EvictsLeastRecentlyUsed) {
    ArtifactCache cache(/*capacity=*/2);
    auto art = [](const char* key) {
        auto a = std::make_shared<CompileArtifact>();
        a->key = key;
        return a;
    };
    cache.put("a", art("a"));
    cache.put("b", art("b"));
    ASSERT_NE(cache.get("a"), nullptr);  // bump "a": now "b" is LRU
    cache.put("c", art("c"));            // evicts "b"
    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_EQ(cache.get("b"), nullptr);
    EXPECT_NE(cache.get("c"), nullptr);
    const service::CacheStats st = cache.stats();
    EXPECT_EQ(st.evictions, 1);
    EXPECT_EQ(st.size, 2u);
}

/// `prefix` followed by `n`, built by appends: GCC 12's -Wrestrict
/// misfires on "k" + std::to_string(n) in optimized builds.
std::string numbered(std::string prefix, int n) {
    prefix += std::to_string(n);
    return prefix;
}

TEST(ArtifactCache, HoldsItsFullCapacityBeforeEvicting) {
    // A cache split into hashed shards evicted from a full shard while
    // others had room, and reported a rounded-up capacity.
    ArtifactCache cache(/*capacity=*/10);
    auto art = [](const std::string& key) {
        auto a = std::make_shared<CompileArtifact>();
        a->key = key;
        return a;
    };
    for (int i = 0; i < 10; ++i) cache.put(numbered("k", i), art(numbered("k", i)));
    service::CacheStats st = cache.stats();
    EXPECT_EQ(st.size, 10u);
    EXPECT_EQ(st.evictions, 0);
    EXPECT_EQ(st.capacity, 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_NE(cache.get(numbered("k", i)), nullptr) << i;

    // Every key was just read in order, so k0 is the least recently
    // used: an 11th key evicts it and nothing else.
    cache.put("k10", art("k10"));
    st = cache.stats();
    EXPECT_EQ(st.size, 10u);
    EXPECT_EQ(st.evictions, 1);
    EXPECT_EQ(cache.get("k0"), nullptr);
    for (int i = 1; i <= 10; ++i)
        EXPECT_NE(cache.get(numbered("k", i)), nullptr) << i;
}

TEST(ArtifactCache, HugeCapacityHoldsEveryEntry) {
    // A rounded-up capacity split once wrapped near SIZE_MAX to 0, so
    // every put evicted itself and nothing hit.
    ArtifactCache cache(SIZE_MAX);
    for (int i = 0; i < 32; ++i) {
        auto a = std::make_shared<CompileArtifact>();
        a->key = numbered("k", i);
        cache.put(a->key, a);
    }
    for (int i = 0; i < 32; ++i) (void)cache.get(numbered("k", i));
    const service::CacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 32);
    EXPECT_EQ(st.evictions, 0);
    EXPECT_EQ(st.size, 32u);
    EXPECT_EQ(st.capacity, SIZE_MAX);
}

TEST(ArtifactCache, ConcurrentInsertsAndLookupsStayBounded) {
    // Service workers insert and look up concurrently. The invariants
    // under the race: no crash, no deadlock, size never exceeds
    // capacity, every eviction is counted, and artifacts already handed
    // out stay alive after their entry is evicted.
    ArtifactCache cache(/*capacity=*/64);
    auto art = [](const std::string& key) {
        auto a = std::make_shared<CompileArtifact>();
        a->key = key;
        return a;
    };
    cache.put("pinned", art("pinned"));
    auto pinned = cache.get("pinned");
    ASSERT_NE(pinned, nullptr);

    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(4);
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&cache, &go, t, &art] {
            while (!go.load()) {
            }
            for (int i = 0; i < 500; ++i) {
                const std::string key = numbered(numbered("w", t) + "-", i);
                cache.put(key, art(key));
                (void)cache.get(numbered(numbered("w", (t + 1) % 4) + "-", i));
                if (i % 16 == 0) (void)cache.stats();
            }
        });
    go.store(true);
    for (std::thread& w : workers) w.join();

    const service::CacheStats st = cache.stats();
    EXPECT_EQ(st.size, st.capacity);
    EXPECT_EQ(st.evictions, 1 + 4 * 500 - static_cast<std::int64_t>(st.size));
    EXPECT_EQ(pinned->key, "pinned");  // shared_ptr kept it alive
}

// ---------------------------------------------------------------------
// Stage-oriented pipeline.

TEST(CompilePipeline, StepsThroughEveryStageInOrder) {
    Program p = programs::fig1(16);
    TargetConfig target;
    target.gridExtents = {4};
    std::vector<CompileStage> visited;
    CompilePipeline pipe(p, target, PassOptions{});
    while (!pipe.done()) {
        visited.push_back(pipe.next());
        ASSERT_TRUE(pipe.step());
    }
    const std::vector<CompileStage> expected = {
        CompileStage::Finalize,      CompileStage::Cfg,
        CompileStage::Dominators,    CompileStage::Ssa,
        CompileStage::ConstProp,     CompileStage::InductionRewrite,
        CompileStage::DataMapping,   CompileStage::MappingPass,
        CompileStage::SpmdLowering,
    };
    EXPECT_EQ(visited, expected);
    EXPECT_FALSE(pipe.step());  // done pipelines refuse to step
    Compilation c = std::move(pipe).take();
    EXPECT_GT(c.lowering().commOps().size(), 0u);
}

// ---------------------------------------------------------------------
// Cached vs fresh must be bit-identical for the paper's variants.

struct TableVariant {
    const char* label;
    std::function<Program()> build;
    TargetConfig target;
    PassOptions passes;
};

std::vector<TableVariant> tableVariants() {
    std::vector<TableVariant> vs;
    {
        TableVariant v;
        v.label = "table1/replication";
        v.build = [] { return programs::tomcatv(65, 5); };
        v.target.gridExtents = {4};
        v.passes.mapping.privatization = false;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table1/producer-only";
        v.build = [] { return programs::tomcatv(65, 5); };
        v.target.gridExtents = {4};
        v.passes.mapping.alignPolicy =
            MappingOptions::AlignPolicy::ProducerOnly;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table1/selected";
        v.build = [] { return programs::tomcatv(65, 5); };
        v.target.gridExtents = {4};
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table2/default";
        v.build = [] { return programs::dgefa(32); };
        v.target.gridExtents = {4};
        v.passes.mapping.reductionAlignment = false;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table2/alignment";
        v.build = [] { return programs::dgefa(32); };
        v.target.gridExtents = {4};
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table3/1d-priv";
        v.build = [] { return programs::appsp(8, 8, 8, 2, /*oneD=*/true); };
        v.target.gridExtents = {4};
        v.passes.mapping.arrayPrivatization = true;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table3/2d-partial";
        v.build = [] { return programs::appsp(8, 8, 8, 2, /*oneD=*/false); };
        v.target.gridExtents = {2, 2};
        v.passes.mapping.arrayPrivatization = true;
        v.passes.mapping.partialPrivatization = true;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table3/2d-partial-combine";
        v.build = [] { return programs::appsp(8, 8, 8, 2, /*oneD=*/false); };
        v.target.gridExtents = {2, 2};
        v.target.costModel.combineMessages = true;
        v.passes.mapping.arrayPrivatization = true;
        v.passes.mapping.partialPrivatization = true;
        vs.push_back(v);
    }
    return vs;
}

TEST(CompileService, CachedEqualsFreshForEveryTableVariant) {
    CompileService svc;
    for (const TableVariant& v : tableVariants()) {
        SCOPED_TRACE(v.label);

        // Fresh: straight through the compiler, no service.
        Program fresh = v.build();
        Compilation direct = Compiler::compile(fresh, v.target, v.passes);
        const std::string directDecisions = direct.report();
        const CostBreakdown directCost = direct.predictCost();

        CompileRequest req;
        req.name = v.label;
        req.build = v.build;
        req.target = v.target;
        req.passes = v.passes;
        const CompileResult miss = svc.compile(req);
        ASSERT_EQ(miss.status, CompileStatus::Ok) << miss.error;
        ASSERT_FALSE(miss.cacheHit);
        const CompileResult hit = svc.compile(req);
        ASSERT_EQ(hit.status, CompileStatus::Ok);
        ASSERT_TRUE(hit.cacheHit);

        // Decision records: identical text, fresh vs miss vs hit.
        EXPECT_EQ(miss.artifact->decisionReport, directDecisions);
        EXPECT_EQ(hit.artifact->decisionReport, directDecisions);

        // Cost numbers: bit-identical doubles, not approximate.
        for (const CompileResult* r : {&miss, &hit}) {
            EXPECT_EQ(r->artifact->cost.computeSec, directCost.computeSec);
            EXPECT_EQ(r->artifact->cost.commSec, directCost.commSec);
            EXPECT_EQ(r->artifact->cost.messageEvents,
                      directCost.messageEvents);
            EXPECT_EQ(r->artifact->cost.commBytes, directCost.commBytes);
        }

        // Simulation metrics from the cached compilation (simulate() is
        // const — safe on the shared artifact).
        auto directSim = direct.simulate();
        auto cachedSim = hit.artifact->compilation->simulate();
        EXPECT_EQ(cachedSim->messageEvents(), directSim->messageEvents());
        EXPECT_EQ(cachedSim->elementTransfers(),
                  directSim->elementTransfers());
        EXPECT_EQ(cachedSim->bytesMoved(), directSim->bytesMoved());
    }
}

TEST(CompileService, SharedMemoryArtifactReplaysBitIdentically) {
    // A cached shm artifact must replay bit-identically cold vs warm:
    // same emitted text, same decision records, the same cost doubles,
    // and a warm simulate() reproducing every metric (barrier epochs
    // included) of the cold run.
    CompileService svc;
    CompileRequest req;
    req.name = "shm/tomcatv";
    req.build = [] { return programs::tomcatv(65, 5); };
    req.target.gridExtents = {4};
    req.target.targetKind = TargetKind::SharedMemory;

    const CompileResult cold = svc.compile(req);
    ASSERT_EQ(cold.status, CompileStatus::Ok) << cold.error;
    ASSERT_FALSE(cold.cacheHit);
    const CompileResult warm = svc.compile(req);
    ASSERT_EQ(warm.status, CompileStatus::Ok);
    ASSERT_TRUE(warm.cacheHit);
    EXPECT_EQ(cold.artifact.get(), warm.artifact.get());

    // The cached artifact carries the shm emission, not mp send/recv.
    EXPECT_NE(cold.artifact->spmdText.find("!$omp parallel"),
              std::string::npos);

    // Cold vs warm vs a fresh direct compile: bit-identical.
    Program fresh = req.build();
    Compilation direct = Compiler::compile(fresh, req.target, req.passes);
    EXPECT_EQ(warm.artifact->spmdText,
              direct.compileTarget().emitText(direct.lowering()));
    EXPECT_EQ(warm.artifact->decisionReport, direct.report());
    const CostBreakdown directCost = direct.predictCost();
    EXPECT_EQ(warm.artifact->cost.computeSec, directCost.computeSec);
    EXPECT_EQ(warm.artifact->cost.commSec, directCost.commSec);
    EXPECT_EQ(warm.artifact->cost.messageEvents, directCost.messageEvents);
    EXPECT_EQ(warm.artifact->cost.commBytes, directCost.commBytes);

    // Warm simulation replays the cold run's metrics exactly.
    auto coldSim = direct.simulate();
    auto warmSim = warm.artifact->compilation->simulate();
    EXPECT_EQ(warmSim->targetKind(), TargetKind::SharedMemory);
    EXPECT_EQ(warmSim->barrierEvents(), coldSim->barrierEvents());
    EXPECT_GT(warmSim->barrierEvents(), 0);
    EXPECT_EQ(warmSim->messageEvents(), coldSim->messageEvents());
    EXPECT_EQ(warmSim->elementTransfers(), coldSim->elementTransfers());
    EXPECT_EQ(warmSim->bytesMoved(), coldSim->bytesMoved());
}

// ---------------------------------------------------------------------
// Batch runner.

TEST(Batch, ParsesJobsAndRunsThemThroughTheService) {
    const char* spec = R"({
      "jobs": [
        {"program": "fig1", "n": 16, "grid": [4]},
        {"program": "fig1", "n": 16, "grid": [4]},
        {"program": "fig1", "n": 16, "grid": [2],
         "options": {"privatization": false}},
        {"program": "unknown-kernel", "grid": [4]}
      ]
    })";
    std::string perr;
    const obs::Json doc = obs::Json::parse(spec, &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    service::BatchSpec batch;
    std::string err;
    ASSERT_TRUE(service::parseBatchSpec(doc, &batch, &err)) << err;
    ASSERT_EQ(batch.jobs.size(), 4u);
    EXPECT_EQ(batch.jobs[2].target.gridExtents, (std::vector<int>{2}));
    EXPECT_FALSE(batch.jobs[2].passes.mapping.privatization);

    CompileService svc;
    std::ostringstream out;
    const service::BatchOutcome outcome =
        service::runBatch(svc, batch, out);
    EXPECT_EQ(outcome.jobs, 4);
    EXPECT_EQ(outcome.ok, 3);
    EXPECT_EQ(outcome.failed, 1);
    EXPECT_LE(outcome.cacheHits, 1);

    // One JSONL row per job, in input order, then the summary row.
    std::vector<obs::Json> rows;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        rows.push_back(obs::Json::parse(line, &perr));
        ASSERT_TRUE(perr.empty()) << perr << ": " << line;
    }
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows[0].at("status").stringValue(), "ok");
    EXPECT_EQ(rows[1].at("status").stringValue(), "ok");
    // The two identical jobs run concurrently: both may compile, or one
    // may hit what the other published. Their numbers agree either way.
    EXPECT_FALSE(rows[0].at("cache_hit").boolValue() &&
                 rows[1].at("cache_hit").boolValue());
    EXPECT_EQ(rows[0].at("cost_prediction").dump(),
              rows[1].at("cost_prediction").dump());
    EXPECT_GT(rows[0].at("cost_prediction").at("total_sec").numberValue(), 0);
    EXPECT_EQ(rows[2].at("status").stringValue(), "ok");
    EXPECT_EQ(rows[3].at("status").stringValue(), "bad-request");
    EXPECT_TRUE(rows[4].at("summary").boolValue());
    EXPECT_EQ(rows[4].at("jobs").intValue(), 4);
    EXPECT_EQ(rows[4].at("schema").stringValue(), "phpf.batch_report");
}

TEST(Batch, OutOfRangeSubscriptFailsWithoutRetry) {
    // Fig. 2 with its index arrays left at zero reads H(i,0): a fault
    // of the program, so the row fails with the program-fault code.
    std::string perr;
    const obs::Json doc = obs::Json::parse(
        R"({"jobs": [{"program": "fig2", "n": 16, "grid": [4],
                      "profile": true}]})",
        &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    service::BatchSpec batch;
    std::string err;
    ASSERT_TRUE(service::parseBatchSpec(doc, &batch, &err)) << err;

    CompileService svc;
    std::ostringstream out;
    const service::BatchOutcome outcome = service::runBatch(svc, batch, out);
    EXPECT_EQ(outcome.failed, 1);
    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    const obs::Json row = obs::Json::parse(line, &perr);
    ASSERT_TRUE(perr.empty()) << perr << ": " << line;
    EXPECT_EQ(row.at("status").stringValue(), "error");
    EXPECT_EQ(row.at("code").stringValue(), "program-fault");
    EXPECT_NE(row.at("error").stringValue().find(
                  "sim.subscript: subscript 2 of H(i,p) is 0"),
              std::string::npos)
        << row.at("error").stringValue();
}

/// `j` without wall-clock (`*_us`, `wall_sec`) and scheduling
/// (`cache_hit`) fields, at any depth.
obs::Json withoutTimings(const obs::Json& j) {
    if (!j.isObject()) return j;
    obs::Json out = obs::Json::object();
    for (const std::string& k : j.keys()) {
        const bool timing =
            k == "wall_sec" ||
            (k.size() > 3 && k.compare(k.size() - 3, 3, "_us") == 0);
        if (timing || k == "cache_hit") continue;
        out.set(k, withoutTimings(j.at(k)));
    }
    return out;
}

/// The batch's job rows (no summary) without timings, one dump each.
std::vector<std::string> stableRows(const std::string& jsonl) {
    std::vector<std::string> rows;
    std::istringstream lines(jsonl);
    std::string line;
    while (std::getline(lines, line)) {
        const obs::Json row = obs::Json::parse(line);
        if (row.find("summary") == nullptr)
            rows.push_back(withoutTimings(row).dump());
    }
    return rows;
}

TEST(Batch, RowsIdenticalAcrossWorkerCounts) {
    // The smoke matrix plus profiled simulation rows: whatever the pool
    // width, every row (calibration included) must come out the same.
    const std::string root = PHPF_SOURCE_DIR;
    service::BatchSpec spec;
    std::string err;
    ASSERT_TRUE(service::loadBatchFile(root + "/examples/batch_smoke.json",
                                       &spec, &err))
        << err;
    for (service::BatchJob& job : spec.jobs)
        if (!job.file.empty()) job.file = root + "/" + job.file;
    const obs::Json profiled = obs::Json::parse(R"([
        {"program": "fig1", "n": 24, "grid": [4], "profile": true},
        {"program": "tomcatv", "n": 33, "niter": 2, "grid": [4],
         "profile": true},
        {"program": "dgefa", "n": 24, "grid": [4], "profile": true,
         "options": {"reduction_alignment": false}},
        {"program": "adi", "n": 16, "niter": 2, "grid": [4], "profile": true}
    ])");
    service::BatchSpec extra;
    ASSERT_TRUE(service::parseBatchSpec(profiled, &extra, &err)) << err;
    spec.jobs.insert(spec.jobs.end(), extra.jobs.begin(), extra.jobs.end());

    std::vector<std::string> reference;
    for (int workers : {1, 2, 4}) {
        service::ServiceConfig cfg;
        cfg.workers = workers;
        CompileService svc(cfg);
        std::ostringstream out;
        const service::BatchOutcome outcome =
            service::runBatch(svc, spec, out);
        EXPECT_EQ(outcome.failed, 0) << workers << " workers";
        const std::vector<std::string> rows = stableRows(out.str());
        ASSERT_EQ(rows.size(), spec.jobs.size());
        EXPECT_NE(rows.back().find("calibration"), std::string::npos);
        if (reference.empty()) reference = rows;
        for (std::size_t i = 0; i < rows.size(); ++i)
            EXPECT_EQ(rows[i], reference[i])
                << workers << " workers, row " << i;
    }
}

TEST(Batch, SerialSummariesAreIdentical) {
    // Two serial runs of the smoke file: once timings are removed the
    // summary rows match, the service's queue block included (a worker
    // may still count as active after its result is out, so
    // metricsJson drains the pool before reading it).
    const std::string root = PHPF_SOURCE_DIR;
    service::BatchSpec spec;
    std::string err;
    ASSERT_TRUE(service::loadBatchFile(root + "/examples/batch_smoke.json",
                                       &spec, &err))
        << err;
    for (service::BatchJob& job : spec.jobs)
        if (!job.file.empty()) job.file = root + "/" + job.file;
    std::string reference;
    for (int run = 0; run < 2; ++run) {
        service::ServiceConfig cfg;
        cfg.workers = 1;
        CompileService svc(cfg);
        std::ostringstream out;
        EXPECT_EQ(service::runBatch(svc, spec, out).failed, 0);
        std::istringstream lines(out.str());
        std::string line, last;
        while (std::getline(lines, line)) last = line;
        const obs::Json summary = obs::Json::parse(last);
        ASSERT_NE(summary.find("summary"), nullptr) << last;
        EXPECT_EQ(summary.at("service").at("queue").at("active").intValue(),
                  0);
        const std::string stable = withoutTimings(summary).dump(-1);
        if (run == 0)
            reference = stable;
        else
            EXPECT_EQ(stable, reference);
    }
}

TEST(Batch, RepeatExpandsAndRejectsAmbiguousJobs) {
    std::string perr;
    service::BatchSpec batch;
    std::string err;

    const obs::Json rep = obs::Json::parse(
        R"([{"program": "fig1", "grid": [4], "repeat": 3}])", &perr);
    ASSERT_TRUE(perr.empty());
    ASSERT_TRUE(service::parseBatchSpec(rep, &batch, &err)) << err;
    EXPECT_EQ(batch.jobs.size(), 3u);

    const obs::Json ambiguous = obs::Json::parse(
        R"([{"program": "fig1", "source": "program p\nend", "grid": [4]}])",
        &perr);
    ASSERT_TRUE(perr.empty());
    service::BatchSpec bad;
    EXPECT_FALSE(service::parseBatchSpec(ambiguous, &bad, &err));
    EXPECT_NE(err.find("exactly one"), std::string::npos) << err;
}

TEST(Batch, RejectsNonPositiveGridExtentsAtLoad) {
    for (const char* grid : {"[0]", "[-2, 2]"}) {
        std::string perr;
        const obs::Json doc = obs::Json::parse(
            std::string(R"([{"program": "fig1", "grid": )") + grid + "}]",
            &perr);
        ASSERT_TRUE(perr.empty()) << perr;
        service::BatchSpec batch;
        std::string err;
        EXPECT_FALSE(service::parseBatchSpec(doc, &batch, &err)) << grid;
        EXPECT_NE(err.find("job 0: grid must be a nonempty array of "
                           "positive extents"),
                  std::string::npos)
            << err;
    }
}

TEST(Batch, RejectsNonPositiveElemBytesAtLoad) {
    for (const char* bytes : {"-8", "0"}) {
        std::string perr;
        const obs::Json doc = obs::Json::parse(
            std::string(R"([{"program": "fig1", "n": 16, "grid": [4],)"
                        R"( "options": {"elem_bytes": )") +
                bytes + "}}]",
            &perr);
        ASSERT_TRUE(perr.empty()) << perr;
        service::BatchSpec batch;
        std::string err;
        EXPECT_FALSE(service::parseBatchSpec(doc, &batch, &err)) << bytes;
        EXPECT_NE(err.find("job 0: elem_bytes must be a positive size"),
                  std::string::npos)
            << err;
    }
}

TEST(Batch, RejectsUnknownTopLevelJobKeys) {
    // A misspelt "grid" and an option outside "options" once ran the
    // job on grid [1] with the default engine and exited 0.
    std::string perr;
    const obs::Json doc = obs::Json::parse(
        R"([{"program": "fig1", "n": 16, "grid": [4]},)"
        R"( {"program": "fig1", "n": 16, "grd": [4], "sim_engine": "interp"}])",
        &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    service::BatchSpec batch;
    std::string err;
    EXPECT_FALSE(service::parseBatchSpec(doc, &batch, &err));
    EXPECT_EQ(err, "job 1: unknown key 'grd'");

    const obs::Json known = obs::Json::parse(
        R"([{"name": "k", "program": "tomcatv", "n": 9, "niter": 1,)"
        R"( "nx": 4, "ny": 4, "nz": 4, "grid": [2],)"
        R"( "profile": false, "options": {"sim_engine": "interp"},)"
        R"( "repeat": 1}])",
        &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    service::BatchSpec ok;
    EXPECT_TRUE(service::parseBatchSpec(known, &ok, &err)) << err;

    // Jobs have no deadline.
    const obs::Json deadline = obs::Json::parse(
        R"([{"program": "fig1", "grid": [4], "deadline_ms": 60000}])", &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    service::BatchSpec timed;
    EXPECT_FALSE(service::parseBatchSpec(deadline, &timed, &err));
    EXPECT_EQ(err, "job 0: unknown key 'deadline_ms'");
}

TEST(Batch, DeeplyNestedJobsFileLoadsAsAnError) {
    // A million nested arrays once overflowed the parser's stack.
    const std::string path = ::testing::TempDir() + "phpf_nested_jobs.json";
    std::ofstream(path) << std::string(1000000, '[');
    service::BatchSpec batch;
    std::string err;
    EXPECT_FALSE(service::loadBatchFile(path, &batch, &err));
    EXPECT_NE(err.find("nesting deeper than 512"), std::string::npos) << err;
    EXPECT_TRUE(batch.jobs.empty());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Simulation span regression: the sim-setup and sim-exec spans must sit
// inside the tracer's own timeline (the old reconstruction from wallSec
// could drift before the enclosing span or go negative), setup first.

TEST(SimulateSpan, ExecSpanStaysInsideTheSimulateSpan) {
    Program p = programs::fig1(16);
    TargetConfig target;
    target.gridExtents = {4};
    Compilation c = Compiler::compile(p, target, PassOptions{});
    obs::Tracer tracer;
    auto sim = c.simulate({.tracer = &tracer});
    ASSERT_NE(sim, nullptr);

    const obs::TraceSpan* setup = nullptr;
    const obs::TraceSpan* exec = nullptr;
    const obs::TraceSpan* simulate = nullptr;
    for (const obs::TraceSpan& s : tracer.spans()) {
        if (s.name == "sim-setup") setup = &s;
        if (s.name.rfind("sim-exec", 0) == 0) exec = &s;
        if (s.name == "simulate") simulate = &s;
    }
    ASSERT_NE(setup, nullptr);
    ASSERT_NE(exec, nullptr);
    ASSERT_NE(simulate, nullptr);
    ASSERT_TRUE(simulate->closed());
    EXPECT_EQ(setup->category, "sim");
    for (const obs::TraceSpan* child : {setup, exec}) {
        ASSERT_TRUE(child->closed());
        EXPECT_GE(child->startNs, simulate->startNs);
        EXPECT_GE(child->durNs, 0);
        EXPECT_LE(child->startNs + child->durNs,
                  simulate->startNs + simulate->durNs);
    }
    EXPECT_LE(setup->startNs + setup->durNs, exec->startNs);
}

}  // namespace
}  // namespace phpf
