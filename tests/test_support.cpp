#include <gtest/gtest.h>

#include "runtime/store.h"
#include "support/diagnostics.h"

namespace phpf {
namespace {

TEST(Diagnostics, CollectsAndCounts) {
    DiagEngine d;
    EXPECT_FALSE(d.hasErrors());
    d.warning({1, 2}, "watch out");
    EXPECT_FALSE(d.hasErrors());
    d.error({3, 4}, "broken");
    d.note({3, 5}, "context");
    EXPECT_TRUE(d.hasErrors());
    EXPECT_EQ(d.errorCount(), 1);
    EXPECT_EQ(d.all().size(), 3u);
    const std::string dump = d.dump();
    EXPECT_NE(dump.find("3:4: error: broken"), std::string::npos);
    EXPECT_NE(dump.find("1:2: warning: watch out"), std::string::npos);
    d.clear();
    EXPECT_FALSE(d.hasErrors());
    EXPECT_TRUE(d.all().empty());
}

TEST(Diagnostics, InvalidLocationPrintsBuilder) {
    Diagnostic diag{DiagSeverity::Error, {}, "no position"};
    EXPECT_NE(diag.str().find("<builder>"), std::string::npos);
}

TEST(Diagnostics, AssertMacroThrowsInternalError) {
    EXPECT_THROW(internalError("boom"), InternalError);
    try {
        PHPF_ASSERT(1 == 2, "math is broken");
        FAIL() << "should have thrown";
    } catch (const InternalError& e) {
        EXPECT_NE(std::string(e.what()).find("math is broken"),
                  std::string::npos);
    }
}

TEST(StoreTest, ColumnMajorLayout) {
    Program p;
    const SymbolId a = p.addSymbol("a", ScalarType::Real, {{1, 3}, {1, 4}});
    Store st(p);
    // Fortran column-major: a(i,j) flat = (i-1) + (j-1)*3.
    EXPECT_EQ(st.flatten(p, a, {1, 1}), 0);
    EXPECT_EQ(st.flatten(p, a, {2, 1}), 1);
    EXPECT_EQ(st.flatten(p, a, {1, 2}), 3);
    EXPECT_EQ(st.flatten(p, a, {3, 4}), 11);
}

TEST(StoreTest, LowerBoundsRespected) {
    Program p;
    const SymbolId a = p.addSymbol("a", ScalarType::Real, {{0, 4}});
    Store st(p);
    EXPECT_EQ(st.flatten(p, a, {0}), 0);
    EXPECT_EQ(st.flatten(p, a, {4}), 4);
    EXPECT_THROW((void)st.flatten(p, a, {5}), InternalError);
    EXPECT_THROW((void)st.flatten(p, a, {-1}), InternalError);
}

TEST(StoreTest, DisjointSymbolStorage) {
    Program p;
    const SymbolId a = p.addSymbol("a", ScalarType::Real, {{1, 4}});
    const SymbolId b = p.addSymbol("b", ScalarType::Real, {{1, 4}});
    Store st(p);
    for (int i = 0; i < 4; ++i) st.set(a, i, 1.0);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(st.get(b, i), 0.0);
    st.set(b, 0, 2.0);
    EXPECT_DOUBLE_EQ(st.get(a, 0), 1.0);
    EXPECT_DOUBLE_EQ(st.get(b, 0), 2.0);
    EXPECT_EQ(st.sizeOf(a), 4);
}

}  // namespace
}  // namespace phpf
