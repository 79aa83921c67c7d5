#pragma once

#include <exception>
#include <string>

namespace phpf {

/// Typed failure of a simulated run: a fault of the simulated program
/// itself. Carries the site that stopped the run so callers can branch
/// on it without parsing message text — a failed run is a typed
/// outcome, never garbage data.
class SimFault : public std::exception {
public:
    SimFault(std::string site, std::string detail)
        : site_(std::move(site)),
          detail_(std::move(detail)),
          msg_("sim fault at " + site_ + ": " + detail_) {}

    [[nodiscard]] const char* what() const noexcept override {
        return msg_.c_str();
    }
    /// Site that stopped the run (faultsite::kSimSubscript).
    [[nodiscard]] const std::string& site() const { return site_; }
    [[nodiscard]] const std::string& detail() const { return detail_; }

private:
    std::string site_;
    std::string detail_;
    std::string msg_;
};

/// SimFault site names, spelled in one place.
namespace faultsite {
/// A subscript outside its declared bounds in the simulated program — a
/// fault of the program or its inputs, so re-running cannot help.
inline constexpr const char* kSimSubscript = "sim.subscript";
}  // namespace faultsite

}  // namespace phpf
