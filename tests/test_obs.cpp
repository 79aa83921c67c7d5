#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "driver/compiler.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "programs/programs.h"

namespace phpf {
namespace {

// ---------------------------------------------------------------------------
// Tracer / ScopedSpan
// ---------------------------------------------------------------------------

TEST(ObsTracer, SpansNestAndTimesAreMonotonic) {
    obs::Tracer t;
    const int outer = t.beginSpan("outer", "pass");
    const int inner = t.beginSpan("inner", "pass");
    t.endSpan(inner);
    t.endSpan(outer);

    ASSERT_EQ(t.spans().size(), 2u);
    const obs::TraceSpan& o = t.spans()[0];
    const obs::TraceSpan& i = t.spans()[1];
    EXPECT_EQ(o.name, "outer");
    EXPECT_EQ(o.depth, 0);
    EXPECT_EQ(i.depth, 1);
    ASSERT_TRUE(o.closed());
    ASSERT_TRUE(i.closed());
    EXPECT_GE(o.durNs, 0);
    EXPECT_GE(i.durNs, 0);
    // The inner span starts no earlier and ends no later than the outer.
    EXPECT_GE(i.startNs, o.startNs);
    EXPECT_LE(i.startNs + i.durNs, o.startNs + o.durNs);
}

TEST(ObsTracer, ScopedSpanClosesOnScopeExitAndIsIdempotent) {
    obs::Tracer t;
    {
        obs::ScopedSpan s(t, "scoped", "pass");
        EXPECT_FALSE(t.spans()[0].closed());
        s.close();
        EXPECT_TRUE(t.spans()[0].closed());
        const std::int64_t dur = t.spans()[0].durNs;
        s.close();  // second close must not re-measure
        EXPECT_EQ(t.spans()[0].durNs, dur);
    }
    ASSERT_EQ(t.spans().size(), 1u);
}

TEST(ObsTracer, NullTracerIsSafe) {
    obs::ScopedSpan s(nullptr, "nothing");
    s.close();  // must not crash
}

TEST(ObsTracer, DisabledTracerRecordsNothing) {
    obs::Tracer t(false);
    const int idx = t.beginSpan("never");
    EXPECT_EQ(idx, -1);
    t.endSpan(idx);
    t.addCompleteSpan("also-never", "", 0, 10);
    { obs::ScopedSpan s(t, "scoped-never"); }
    EXPECT_TRUE(t.spans().empty());
    // spans() never allocated: capacity stays zero on the disabled path.
    EXPECT_EQ(t.spans().capacity(), 0u);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(ObsMetrics, HistogramSummaryAndBuckets) {
    obs::Histogram h;
    h.record(0.5);
    h.record(1.0);
    h.record(3.0);
    EXPECT_EQ(h.count(), 3);
    EXPECT_DOUBLE_EQ(h.sum(), 4.5);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 3.0);
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
    EXPECT_EQ(h.bucket(0), 1);  // [0, 1)
    EXPECT_EQ(h.bucket(1), 1);  // [1, 2)
    EXPECT_EQ(h.bucket(2), 1);  // [2, 4)
    EXPECT_EQ(h.bucket(3), 0);
}

// ---------------------------------------------------------------------------
// Histogram quantiles
// ---------------------------------------------------------------------------

TEST(TelemetryQuantiles, UniformDistributionEstimatesAreTight) {
    obs::Histogram h;
    // 1..1000 uniformly: inside each power-of-two bucket the samples
    // really are uniform, so the interpolation should be near-exact.
    for (int v = 1; v <= 1000; ++v) h.record(v);
    EXPECT_NEAR(h.p50(), 500.0, 25.0);
    EXPECT_NEAR(h.p90(), 900.0, 25.0);
    EXPECT_NEAR(h.p99(), 990.0, 25.0);
    EXPECT_NEAR(h.quantile(0.0), 1.0, 1.0);
    EXPECT_NEAR(h.quantile(1.0), 1000.0, 1.0);
}

TEST(TelemetryQuantiles, ConstantDistributionCollapsesToTheValue) {
    obs::Histogram h;
    for (int i = 0; i < 100; ++i) h.record(42.0);
    // The covering bucket is [32, 64) but the observed min/max clamp
    // the interpolation to the single real value.
    EXPECT_DOUBLE_EQ(h.p50(), 42.0);
    EXPECT_DOUBLE_EQ(h.p90(), 42.0);
    EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(TelemetryQuantiles, HeavyTailSeparatesBodyFromTail) {
    obs::Histogram h;
    for (int i = 0; i < 99; ++i) h.record(10.0);
    h.record(10000.0);
    // The body sits in the [8, 16) bucket: the estimate stays inside
    // that bucket (the documented guarantee), far from the tail.
    EXPECT_GE(h.p50(), 10.0);
    EXPECT_LT(h.p50(), 16.0);
    EXPECT_GE(h.p90(), 10.0);
    EXPECT_LT(h.p90(), 16.0);
    EXPECT_GT(h.p99(), 100.0);  // the tail sample dominates p99
    EXPECT_EQ(h.count(), 100);
}

TEST(TelemetryQuantiles, EmptyHistogramIsZero) {
    obs::Histogram h;
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

// ---------------------------------------------------------------------------
// Json round-trip
// ---------------------------------------------------------------------------

TEST(ObsJson, DumpParseRoundTrip) {
    obs::Json root = obs::Json::object();
    root.set("s", "he\"llo\n");
    root.set("i", std::int64_t{-42});
    root.set("d", 1.5);
    root.set("b", true);
    root.set("n", nullptr);
    obs::Json arr = obs::Json::array();
    arr.push(1);
    arr.push("two");
    root.set("a", std::move(arr));

    for (int indent : {-1, 2}) {
        std::string err;
        const obs::Json back = obs::Json::parse(root.dump(indent), &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(back.at("s").stringValue(), "he\"llo\n");
        EXPECT_EQ(back.at("i").intValue(), -42);
        EXPECT_DOUBLE_EQ(back.at("d").numberValue(), 1.5);
        EXPECT_TRUE(back.at("b").boolValue());
        EXPECT_TRUE(back.at("n").isNull());
        ASSERT_EQ(back.at("a").size(), 2u);
        EXPECT_EQ(back.at("a").items()[1].stringValue(), "two");
        // Insertion order survives the round trip.
        EXPECT_EQ(back.keys().front(), "s");
    }
}

TEST(ObsJson, ParseReportsErrors) {
    std::string err;
    const obs::Json j = obs::Json::parse("{\"unterminated\": ", &err);
    EXPECT_TRUE(j.isNull());
    EXPECT_FALSE(err.empty());
}

// The exact bytes dump() writes: doubles as printf's %.12g on both sides
// of its fixed/exponent switch, non-finite doubles as null, the int64
// extremes, every escape, empty containers and nested indentation.
TEST(ObsJson, DumpBytesArePinned) {
    obs::Json root = obs::Json::object();
    obs::Json doubles = obs::Json::array();
    for (double v : {1e-05, 0.0001, 4.02285714286e-05, 123456789012.0,
                     1234567890123.0, 1e+21, -0.0, 0.1 + 0.2})
        doubles.push(v);
    root.set("doubles", std::move(doubles));
    obs::Json nonFinite = obs::Json::array();
    nonFinite.push(std::numeric_limits<double>::quiet_NaN());
    nonFinite.push(std::numeric_limits<double>::infinity());
    nonFinite.push(-std::numeric_limits<double>::infinity());
    root.set("non_finite", std::move(nonFinite));
    obs::Json ints = obs::Json::array();
    ints.push(std::numeric_limits<std::int64_t>::min());
    ints.push(std::numeric_limits<std::int64_t>::max());
    ints.push(0);
    ints.push(-1);
    root.set("ints", std::move(ints));
    root.set("escapes", std::string("q\" b\\ n\n r\r t\t bs\b ff\f "
                                    "x01\x01 x1f\x1f slash/ utf8\xc3\xa9"));
    root.set("empty_array", obs::Json::array());
    root.set("empty_object", obs::Json::object());
    obs::Json inner = obs::Json::object();
    inner.set("k", true);
    inner.set("n", nullptr);
    obs::Json list = obs::Json::array();
    list.push(std::move(inner));
    list.push(obs::Json::array());
    obs::Json nested = obs::Json::object();
    nested.set("list", std::move(list));
    root.set("nested", std::move(nested));
    root.set("key \"quoted\"\t", 1);

    const std::string escapes =
        R"("q\" b\\ n\n r\r t\t bs\u0008 ff\u000c x01\u0001 x1f\u001f )"
        "slash/ utf8\xc3\xa9\"";
    EXPECT_EQ(root.dump(-1),
              "{\"doubles\": [1e-05,0.0001,4.02285714286e-05,123456789012,"
              "1.23456789012e+12,1e+21,-0,0.3],"
              "\"non_finite\": [null,null,null],"
              "\"ints\": [-9223372036854775808,9223372036854775807,0,-1],"
              "\"escapes\": " + escapes + ","
              "\"empty_array\": [],\"empty_object\": {},"
              "\"nested\": {\"list\": [{\"k\": true,\"n\": null},[]]},"
              "\"key \\\"quoted\\\"\\t\": 1}");
    EXPECT_EQ(root.dump(2),
              "{\n"
              "  \"doubles\": [\n"
              "    1e-05,\n"
              "    0.0001,\n"
              "    4.02285714286e-05,\n"
              "    123456789012,\n"
              "    1.23456789012e+12,\n"
              "    1e+21,\n"
              "    -0,\n"
              "    0.3\n"
              "  ],\n"
              "  \"non_finite\": [\n"
              "    null,\n"
              "    null,\n"
              "    null\n"
              "  ],\n"
              "  \"ints\": [\n"
              "    -9223372036854775808,\n"
              "    9223372036854775807,\n"
              "    0,\n"
              "    -1\n"
              "  ],\n"
              "  \"escapes\": " + escapes + ",\n"
              "  \"empty_array\": [],\n"
              "  \"empty_object\": {},\n"
              "  \"nested\": {\n"
              "    \"list\": [\n"
              "      {\n"
              "        \"k\": true,\n"
              "        \"n\": null\n"
              "      },\n"
              "      []\n"
              "    ]\n"
              "  },\n"
              "  \"key \\\"quoted\\\"\\t\": 1\n"
              "}");
}

TEST(ObsJson, ParseRejectsDeepNestingInsteadOfOverflowingTheStack) {
    std::string err;
    const obs::Json j = obs::Json::parse(std::string(1000000, '['), &err);
    EXPECT_TRUE(j.isNull());
    EXPECT_NE(err.find("nesting deeper than 512"), std::string::npos) << err;
}

TEST(ObsJson, ParseAcceptsNestingUpToTheCap) {
    const auto arrays = [](int depth) {
        return std::string(static_cast<size_t>(depth), '[') +
               std::string(static_cast<size_t>(depth), ']');
    };
    std::string objects;
    for (int d = 0; d < 513; ++d) objects += "{\"k\": ";
    objects += "1" + std::string(513, '}');
    std::string err;
    EXPECT_TRUE(obs::Json::parse(arrays(512), &err).isArray());
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_TRUE(obs::Json::parse(arrays(513), &err).isNull());
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_TRUE(obs::Json::parse(objects, &err).isNull());
    EXPECT_FALSE(err.empty());
}

TEST(ObsJson, ParseRejectsMalformedNumbers) {
    for (const char* bad : {"-", "--5", "1e", "1e+", "1.", "1.2.3", ".5", "+1",
                            "01", "-01", "[1,-]", "0x10", "1E400"}) {
        std::string err;
        EXPECT_TRUE(obs::Json::parse(bad, &err).isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(ObsJson, ParseReadsTheNumberGrammar) {
    const obs::Json j = obs::Json::parse(
        "[0, -0, -12, 1.5e3, 2E-2, 1e+2, -9223372036854775808, "
        "9223372036854775808]");
    ASSERT_EQ(j.size(), 8u);
    const std::vector<obs::Json>& v = j.items();
    EXPECT_EQ(v[0].kind(), obs::Json::Kind::Int);
    EXPECT_EQ(v[1].kind(), obs::Json::Kind::Int);
    EXPECT_EQ(v[1].intValue(), 0);
    EXPECT_EQ(v[2].intValue(), -12);
    EXPECT_EQ(v[3].kind(), obs::Json::Kind::Double);
    EXPECT_EQ(v[3].numberValue(), 1500.0);
    EXPECT_EQ(v[4].numberValue(), 0.02);
    EXPECT_EQ(v[5].numberValue(), 100.0);
    EXPECT_EQ(v[6].kind(), obs::Json::Kind::Int);
    EXPECT_EQ(v[6].intValue(), std::numeric_limits<std::int64_t>::min());
    // Past int64: read as a double, not clamped.
    EXPECT_EQ(v[7].kind(), obs::Json::Kind::Double);
    EXPECT_EQ(v[7].numberValue(), 9223372036854775808.0);
}

TEST(ObsJson, ParseDecodesEveryEscape) {
    std::string err;
    const obs::Json j = obs::Json::parse(
        R"("\" \\ \/ \b \f \n \r \t \u0041 \u00e9 \ud83d\ude00")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j.stringValue(),
              "\" \\ / \b \f \n \r \t A \xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(ObsJson, ParseRejectsBadEscapesAndRawControlCharacters) {
    for (const char* bad :
         {R"("\uzz12")", R"("\u12")", R"("\q")", R"("\ud800")",
          R"("\ud800\u0041")", R"("\udc00")", "\"tab\there\"", "\"\\"}) {
        std::string err;
        EXPECT_TRUE(obs::Json::parse(bad, &err).isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(ObsJson, DuplicateKeysKeepTheirFirstPositionAndLastValue) {
    const obs::Json parsed =
        obs::Json::parse(R"({"a": 1, "b": 2, "a": 3})");
    obs::Json built = obs::Json::object();
    built.set("a", 1);
    built.set("b", 2);
    built.set("a", 3);
    const obs::Json* both[] = {&parsed, &built};
    for (const obs::Json* j : both) {
        EXPECT_EQ(j->keys(), (std::vector<std::string>{"a", "b"}));
        EXPECT_EQ(j->at("a").intValue(), 3);
        EXPECT_EQ(j->at("b").intValue(), 2);
    }
}

// ---------------------------------------------------------------------------
// Decision records (paper Fig. 1: four privatized scalars, four fates)
// ---------------------------------------------------------------------------

class ObsFig1 : public ::testing::Test {
protected:
    void SetUp() override {
        program_ = programs::fig1(32);
        TargetConfig opts;
        opts.gridExtents = {4};
        compilation_ =
            std::make_unique<Compilation>(Compiler::compile(program_, opts));
    }

    const obs::DecisionLog& log() const {
        return compilation_->mappingPass().decisionLog();
    }

    Program program_;
    std::unique_ptr<Compilation> compilation_;
};

TEST_F(ObsFig1, EveryPrivatizedScalarHasARecord) {
    for (const char* v : {"m", "x", "y", "z"})
        EXPECT_NE(log().findVariable(v), nullptr) << v;
}

TEST_F(ObsFig1, ChosenAlternativesMatchThePaper) {
    EXPECT_EQ(log().findVariable("x")->chosen, "consumer-aligned");
    EXPECT_EQ(log().findVariable("y")->chosen, "producer-aligned");
    EXPECT_EQ(log().findVariable("z")->chosen, "unaligned-private");
}

TEST_F(ObsFig1, RecordsCarryAllAlternativesWithCostsOrNotes) {
    for (const char* v : {"x", "y", "z"}) {
        const obs::DecisionRecord* r = log().findVariable(v);
        ASSERT_NE(r, nullptr) << v;
        ASSERT_EQ(r->alternatives.size(), 4u) << v;

        int chosenCount = 0;
        bool sawConsumer = false, sawProducer = false, sawPrivate = false,
             sawReplicated = false;
        for (const obs::AlternativeCost& a : r->alternatives) {
            sawConsumer |= a.name == "consumer-aligned";
            sawProducer |= a.name == "producer-aligned";
            sawPrivate |= a.name == "unaligned-private";
            sawReplicated |= a.name == "replicated";
            if (a.chosen) {
                ++chosenCount;
                EXPECT_TRUE(a.feasible) << v;
                EXPECT_EQ(a.name, r->chosen) << v;
            }
            if (a.feasible)
                EXPECT_GE(a.costSec, 0.0) << v << " " << a.name;
            else
                EXPECT_FALSE(a.note.empty()) << v << " " << a.name;
        }
        EXPECT_EQ(chosenCount, 1) << v;
        EXPECT_TRUE(sawConsumer && sawProducer && sawPrivate && sawReplicated)
            << v;
    }
    // Replication is always feasible and, with partitioned rhs reads,
    // costs broadcasts — the rejected alternative must carry that cost.
    const obs::DecisionRecord* x = log().findVariable("x");
    for (const obs::AlternativeCost& a : x->alternatives)
        if (a.name == "replicated") {
            EXPECT_TRUE(a.feasible);
            EXPECT_GT(a.costSec, 0.0);
        }
}

TEST_F(ObsFig1, DecisionsSerializeWithNullCostForInfeasible) {
    const obs::Json j = log().toJson();
    ASSERT_TRUE(j.isArray());
    ASSERT_GE(j.size(), 4u);
    bool sawNullCost = false, sawNumericCost = false;
    for (const obs::Json& rec : j.items()) {
        EXPECT_TRUE(rec.at("variable").isString());
        EXPECT_TRUE(rec.at("chosen").isString());
        for (const obs::Json& alt : rec.at("alternatives").items()) {
            if (alt.at("feasible").boolValue())
                sawNumericCost |= alt.at("cost_sec").isNumber();
            else
                sawNullCost |= alt.at("cost_sec").isNull();
        }
    }
    EXPECT_TRUE(sawNullCost);
    EXPECT_TRUE(sawNumericCost);
}

// ---------------------------------------------------------------------------
// Run report + Chrome trace round-trip
// ---------------------------------------------------------------------------

TEST(ObsReport, RunReportRoundTripsThroughJson) {
    Program p = programs::fig1(32);
    DiagEngine diags;
    TargetConfig opts;
    CompileSession session;
    opts.gridExtents = {4};
    session.tracer = std::make_shared<obs::Tracer>();
    session.diags = &diags;
    Compilation c = Compiler::compile(p, opts, PassOptions{}, session);
    auto sim = c.simulate();

    std::string err;
    const obs::Json r = obs::Json::parse(c.buildRunReport(sim.get()).dump(), &err);
    ASSERT_TRUE(err.empty()) << err;

    EXPECT_EQ(r.at("schema").stringValue(), "phpf.run_report");
    EXPECT_EQ(r.at("schema_version").intValue(), 6);
    EXPECT_EQ(r.at("program").stringValue(), "fig1");
    EXPECT_EQ(r.at("total_procs").intValue(), 4);
    EXPECT_EQ(r.at("induction_rewrites").intValue(), 1);

    // Per-pass wall times: every pipeline stage shows up, closed.
    ASSERT_TRUE(r.at("passes").isArray());
    bool sawMapping = false;
    for (const obs::Json& pass : r.at("passes").items()) {
        sawMapping |= pass.at("name").stringValue() == "mapping-pass";
        EXPECT_TRUE(pass.at("wall_us").isNumber());
        EXPECT_GE(pass.at("wall_us").numberValue(), 0.0);
    }
    EXPECT_TRUE(sawMapping);

    // The induction-rewrite note flows from DiagEngine into the report.
    ASSERT_GE(r.at("diagnostics").size(), 1u);
    EXPECT_EQ(r.at("diagnostics").items()[0].at("severity").stringValue(),
              "note");

    ASSERT_GE(r.at("decisions").size(), 4u);
    EXPECT_TRUE(r.at("cost_prediction").at("total_sec").isNumber());

    // Simulation metrics: one entry per processor, consistent totals.
    const obs::Json& sim_j = r.at("simulation");
    ASSERT_EQ(sim_j.at("per_proc").size(), 4u);
    std::int64_t stmts = 0;
    for (const obs::Json& pp : sim_j.at("per_proc").items())
        stmts += pp.at("stmts_executed").intValue();
    EXPECT_EQ(stmts, sim_j.at("statements_executed_all_procs").intValue());
    EXPECT_EQ(sim_j.at("bytes_moved").intValue(),
              sim_j.at("element_transfers").intValue() *
                  sim_j.at("elem_bytes").intValue());
    EXPECT_GE(sim_j.at("imbalance").at("ratio").numberValue(), 1.0);
}

TEST(ObsReport, SimulatorUsesConfiguredElementSize) {
    Program p = programs::fig1(32);
    TargetConfig opts;
    opts.gridExtents = {4};
    opts.costModel.elemBytes = 4;
    Compilation c = Compiler::compile(p, opts);
    auto sim = c.simulate();
    sim->run();
    EXPECT_EQ(sim->elemBytes(), 4);
    EXPECT_EQ(sim->bytesMoved(), sim->elementTransfers() * 4);
}

TEST(ObsReport, ChromeTraceIsValidAndLoadsSpans) {
    Program p = programs::fig1(32);
    TargetConfig opts;
    CompileSession session;
    opts.gridExtents = {4};
    session.tracer = std::make_shared<obs::Tracer>();
    Compilation c = Compiler::compile(p, opts, PassOptions{}, session);

    std::string err;
    const obs::Json t =
        obs::Json::parse(obs::buildChromeTrace(*session.tracer, "phpf test").dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(t.at("traceEvents").isArray());
    ASSERT_GE(t.at("traceEvents").size(), 2u);

    const obs::Json& meta = t.at("traceEvents").items()[0];
    EXPECT_EQ(meta.at("ph").stringValue(), "M");
    EXPECT_EQ(meta.at("name").stringValue(), "process_name");

    for (size_t i = 1; i < t.at("traceEvents").items().size(); ++i) {
        const obs::Json& ev = t.at("traceEvents").items()[i];
        EXPECT_EQ(ev.at("ph").stringValue(), "X");
        EXPECT_TRUE(ev.at("ts").isNumber());
        EXPECT_TRUE(ev.at("dur").isNumber());
        EXPECT_GE(ev.at("dur").numberValue(), 0.0);
    }
}

}  // namespace
}  // namespace phpf
