#pragma once

// Seeded input generation. Everything the benchmark varies with
// --seed comes from here: the job order, the values of the arrays a
// simulation starts from, and the service's popularity draw. The
// library under test only ever sees the generated values.

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "runtime/interp.h"

namespace perfbench {

/// splitmix64: tiny, fast, and the same sequence on every platform.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double uniform();
    /// Uniform integer in [lo, hi].
    std::int64_t range(std::int64_t lo, std::int64_t hi);
    /// A fresh generator for one purpose, so adding draws to one stream
    /// never shifts another.
    Rng fork(std::uint64_t stream) { return Rng(next() ^ (stream * 0x9e3779b97f4a7c15ull)); }

private:
    std::uint64_t state_;
};

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(i) - 1))]);
}

/// Zipf(s) over ranks 0..n-1: P(rank r) is proportional to 1/(r+1)^s.
class Zipf {
public:
    Zipf(std::size_t n, double s);
    [[nodiscard]] std::size_t draw(Rng& rng) const;

private:
    std::vector<double> cdf_;
};

/// Initial values of every array of one program, by name.
struct ArrayInit {
    std::string name;
    std::vector<double> values;  ///< flat, in Store order
};
using InputSet = std::vector<ArrayInit>;

/// Values for every array of `p`. Real arrays get values in [0.5, 1.5).
/// Integer arrays may be used as subscripts (Fig. 2's `p = B(i)` feeds
/// `H(i,p)`), so they get values inside every declared dimension of
/// every array of the program: whichever array they index, the index is
/// in bounds. A program whose arrays share no index range gets no
/// integer values and is reported as an error by the caller.
[[nodiscard]] bool makeInputs(const phpf::Program& p, Rng& rng, InputSet* out,
                              std::string* err);

/// Copy `in` into the oracle's store (by symbol name, so it applies to
/// the compiled program even after passes appended symbols).
void applyInputs(const InputSet& in, const phpf::Program& p, phpf::Interpreter& oracle);

}  // namespace perfbench
