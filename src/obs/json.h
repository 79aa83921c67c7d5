#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace phpf::obs {

/// Minimal ordered JSON value: enough to emit the run report / Chrome
/// trace and to parse them back in tests and tools. Object keys keep
/// insertion order so emitted reports diff cleanly across runs. An
/// object is two parallel vectors (keys, values) with no index: the
/// objects this project builds hold at most a few dozen keys, so a
/// scan beats a node-per-key map on both set() and find().
class Json {
public:
    enum class Kind : std::uint8_t { Null, Bool, Int, Double, String, Array, Object };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(int v) : kind_(Kind::Int), int_(v) {}
    Json(std::int64_t v) : kind_(Kind::Int), int_(v) {}
    Json(double v) : kind_(Kind::Double), dbl_(v) {}
    Json(const char* s) : kind_(Kind::String), str_(s) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    [[nodiscard]] static Json array() {
        Json j;
        j.kind_ = Kind::Array;
        return j;
    }
    [[nodiscard]] static Json object() {
        Json j;
        j.kind_ = Kind::Object;
        return j;
    }

    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }
    [[nodiscard]] bool isNumber() const {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }
    [[nodiscard]] bool isString() const { return kind_ == Kind::String; }
    [[nodiscard]] bool isArray() const { return kind_ == Kind::Array; }
    [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }

    [[nodiscard]] bool boolValue() const { return bool_; }
    [[nodiscard]] std::int64_t intValue() const {
        return kind_ == Kind::Double ? static_cast<std::int64_t>(dbl_) : int_;
    }
    [[nodiscard]] double numberValue() const {
        return kind_ == Kind::Int ? static_cast<double>(int_) : dbl_;
    }
    [[nodiscard]] const std::string& stringValue() const { return str_; }

    // -- array --
    Json& push(Json v) {
        kind_ = Kind::Array;
        items_.push_back(std::move(v));
        return items_.back();
    }
    [[nodiscard]] const std::vector<Json>& items() const { return items_; }
    [[nodiscard]] size_t size() const {
        return isObject() ? keys_.size() : items_.size();
    }

    // -- object --
    Json& set(const std::string& key, Json v);
    /// Member lookup; nullptr when absent or not an object.
    [[nodiscard]] const Json* find(const std::string& key) const;
    /// `find` that never returns nullptr (a static null for misses):
    /// lets tests chain lookups without crashing.
    [[nodiscard]] const Json& at(const std::string& key) const;
    [[nodiscard]] const std::vector<std::string>& keys() const { return keys_; }

    /// Serialize; `indent` < 0 means compact single-line output.
    [[nodiscard]] std::string dump(int indent = 2) const;

    /// Parse RFC 8259 JSON `text`; on failure returns Null and fills
    /// `*err` when given. Arrays and objects nested more than 512 deep
    /// fail too, so a hostile input cannot exhaust the stack.
    [[nodiscard]] static Json parse(const std::string& text,
                                    std::string* err = nullptr);

private:
    friend class JsonParser;  // appends parsed members without a scan

    void dumpTo(std::string& out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    std::vector<Json> items_;           ///< array elements / object values
    std::vector<std::string> keys_;     ///< object keys, insertion order
};

/// JSON string escaping (shared with hand-rolled emitters).
[[nodiscard]] std::string jsonEscape(const std::string& s);

}  // namespace phpf::obs
