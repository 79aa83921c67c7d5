#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double Rng::uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

bool makeInputs(const phpf::Program& p, Rng& rng, InputSet* out,
                std::string* err) {
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    for (const phpf::Symbol& s : p.symbols)
        for (const phpf::ArrayDim& d : s.dims) {
            lo = std::max(lo, d.lb);
            hi = std::min(hi, d.ub);
        }
    out->clear();
    for (const phpf::Symbol& s : p.symbols) {
        if (!s.isArray()) continue;
        ArrayInit a{s.name, std::vector<double>(static_cast<std::size_t>(s.elementCount()))};
        if (s.type == phpf::ScalarType::Int) {
            if (lo > hi) {
                *err = "integer array " + s.name +
                       " indexes arrays that share no index range";
                return false;
            }
            for (double& v : a.values) v = static_cast<double>(rng.range(lo, hi));
        } else {
            for (double& v : a.values) v = 0.5 + rng.uniform();
        }
        out->push_back(std::move(a));
    }
    return true;
}

void applyInputs(const InputSet& in, const phpf::Program& p,
                 phpf::Interpreter& oracle) {
    for (const ArrayInit& a : in)
        for (const phpf::Symbol& s : p.symbols) {
            if (s.name != a.name) continue;
            for (std::size_t i = 0; i < a.values.size(); ++i)
                oracle.store().set(s.id, static_cast<std::int64_t>(i), a.values[i]);
            break;
        }
}

}  // namespace perfbench
