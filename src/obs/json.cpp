#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <string_view>
#include <unordered_map>

namespace phpf::obs {

namespace {

/// Append `s` to `out` with JSON string escaping, copying unescaped runs
/// in bulk. Control characters other than \n, \r, \t become \u00xx.
void escapeTo(std::string& out, std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t run = 0;  // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default: {
                const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                  kHex[c & 15]};
                out.append(u, sizeof u);
            }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

}  // namespace

Json& Json::set(const std::string& key, Json v) {
    kind_ = Kind::Object;
    for (size_t i = 0; i < keys_.size(); ++i)
        if (keys_[i] == key) return items_[i] = std::move(v);
    if (keys_.empty()) {
        // Most objects hold a handful of keys: skip the 1-2-4 regrowth.
        keys_.reserve(4);
        items_.reserve(4);
    }
    keys_.push_back(key);
    items_.push_back(std::move(v));
    return items_.back();
}

const Json* Json::find(const std::string& key) const {
    if (kind_ != Kind::Object) return nullptr;
    for (size_t i = 0; i < keys_.size(); ++i)
        if (keys_[i] == key) return &items_[i];
    return nullptr;
}

const Json& Json::at(const std::string& key) const {
    static const Json kNull;
    const Json* j = find(key);
    return j == nullptr ? kNull : *j;
}

std::string jsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    escapeTo(out, s);
    return out;
}

void Json::dumpTo(std::string& out, int indent, int depth) const {
    const auto newline = [&](int d) {
        if (indent < 0) return;
        out += '\n';
        out.append(static_cast<size_t>(indent * d), ' ');
    };
    switch (kind_) {
        case Kind::Null: out += "null"; break;
        case Kind::Bool: out += bool_ ? "true" : "false"; break;
        case Kind::Int: {
            char buf[24];
            out.append(buf, std::to_chars(buf, buf + sizeof buf, int_).ptr);
            break;
        }
        case Kind::Double: {
            if (std::isfinite(dbl_)) {
                // Byte-identical to printf's %.12g.
                char buf[32];
                out.append(buf, std::to_chars(buf, buf + sizeof buf, dbl_,
                                              std::chars_format::general, 12)
                                    .ptr);
            } else {
                out += "null";  // JSON has no inf/nan
            }
            break;
        }
        case Kind::String:
            out += '"';
            escapeTo(out, str_);
            out += '"';
            break;
        case Kind::Array: {
            if (items_.empty()) {
                out += "[]";
                break;
            }
            out += '[';
            for (size_t i = 0; i < items_.size(); ++i) {
                if (i > 0) out += ',';
                newline(depth + 1);
                items_[i].dumpTo(out, indent, depth + 1);
            }
            newline(depth);
            out += ']';
            break;
        }
        case Kind::Object: {
            if (keys_.empty()) {
                out += "{}";
                break;
            }
            out += '{';
            for (size_t i = 0; i < keys_.size(); ++i) {
                if (i > 0) out += ',';
                newline(depth + 1);
                out += '"';
                escapeTo(out, keys_[i]);
                out += "\": ";
                items_[i].dumpTo(out, indent, depth + 1);
            }
            newline(depth);
            out += '}';
            break;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over the RFC 8259 grammar.
// ---------------------------------------------------------------------------

namespace {

/// Arrays and objects nested deeper than this fail to parse.
constexpr int kMaxParseDepth = 512;

bool isDigit(char c) { return c >= '0' && c <= '9'; }

int hexValue(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

void appendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
        out += static_cast<char>(0xF0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    }
}

}  // namespace

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    Json parseDocument(std::string* err) {
        Json v = parseValue(0);
        skipWs();
        if (!failed() && pos_ != text_.size()) fail("trailing content");
        if (failed()) {
            if (err != nullptr) *err = err_;
            return {};
        }
        return v;
    }

private:
    [[nodiscard]] bool failed() const { return !err_.empty(); }
    Json fail(const std::string& what) {
        if (err_.empty()) err_ = what + " at offset " + std::to_string(pos_);
        return {};
    }
    void skipWs() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }
    [[nodiscard]] char peek() {
        skipWs();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }
    bool consume(char c) {
        if (peek() != c) return false;
        ++pos_;
        return true;
    }

    /// Four hex digits after "\u"; -1 (and a failure) when malformed.
    int hex4() {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return -1;
        }
        int code = 0;
        for (int k = 0; k < 4; ++k) {
            const int h = hexValue(text_[pos_ + k]);
            if (h < 0) {
                fail("bad \\u escape");
                return -1;
            }
            code = code * 16 + h;
        }
        pos_ += 4;
        return code;
    }

    /// A \u escape (the "\u" consumed), surrogate pairs joined, as UTF-8.
    bool unicodeEscape(std::string& out) {
        int cp = hex4();
        if (cp < 0) return false;
        const auto isHigh = [](int u) { return u >= 0xD800 && u <= 0xDBFF; };
        const auto isLow = [](int u) { return u >= 0xDC00 && u <= 0xDFFF; };
        if (isHigh(cp) && text_.compare(pos_, 2, "\\u") == 0) {
            pos_ += 2;
            const int lo = hex4();
            if (lo < 0) return false;
            if (!isLow(lo)) {
                fail("unpaired surrogate in \\u escape");
                return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (isHigh(cp) || isLow(cp)) {
            fail("unpaired surrogate in \\u escape");
            return false;
        }
        appendUtf8(out, static_cast<std::uint32_t>(cp));
        return true;
    }

    bool parseString(std::string& out) {
        ++pos_;  // opening quote
        while (pos_ < text_.size() && text_[pos_] != '"') {
            const char c = text_[pos_++];
            if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("control character in string");
                return false;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) break;  // unterminated, below
            switch (text_[pos_++]) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u':
                    if (!unicodeEscape(out)) return false;
                    break;
                default:
                    --pos_;
                    fail("bad escape");
                    return false;
            }
        }
        if (pos_ >= text_.size()) {
            fail("unterminated string");
            return false;
        }
        ++pos_;  // closing quote
        return true;
    }

    /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — an integer when
    /// it has no fraction or exponent and fits int64, else a double.
    Json parseNumber() {
        const size_t start = pos_;
        const auto digits = [&] {
            const size_t from = pos_;
            while (pos_ < text_.size() && isDigit(text_[pos_])) ++pos_;
            return pos_ > from;
        };
        const auto at = [&](char c) {
            return pos_ < text_.size() && text_[pos_] == c;
        };
        if (at('-')) ++pos_;
        if (at('0')) {
            ++pos_;
        } else if (!digits()) {
            return fail("malformed number");
        }
        bool integral = true;
        if (at('.')) {
            ++pos_;
            integral = false;
            if (!digits()) return fail("malformed number");
        }
        if (at('e') || at('E')) {
            ++pos_;
            integral = false;
            if (at('+') || at('-')) ++pos_;
            if (!digits()) return fail("malformed number");
        }
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        if (integral) {
            std::int64_t v = 0;
            if (std::from_chars(first, last, v).ec == std::errc())
                return Json(v);
        }
        double d = 0.0;
        if (std::from_chars(first, last, d).ec != std::errc()) {
            pos_ = start;
            return fail("number out of range");
        }
        return Json(d);
    }

    Json parseValue(int depth) {
        const char c = peek();
        if ((c == '{' || c == '[') && depth >= kMaxParseDepth)
            return fail("nesting deeper than " +
                        std::to_string(kMaxParseDepth));
        if (c == '{') {
            ++pos_;
            Json obj = Json::object();
            if (consume('}')) return obj;
            // Key -> position, so a duplicate key replaces its value (as
            // set() does) without a quadratic scan of a huge object.
            std::unordered_map<std::string, size_t> seen;
            do {
                if (peek() != '"') return fail("expected object key");
                std::string key;
                if (!parseString(key)) return {};
                if (!consume(':')) return fail("expected ':'");
                Json v = parseValue(depth + 1);
                if (failed()) return {};
                const auto [it, fresh] =
                    seen.try_emplace(key, obj.keys_.size());
                if (fresh) {
                    obj.keys_.push_back(std::move(key));
                    obj.items_.push_back(std::move(v));
                } else {
                    obj.items_[it->second] = std::move(v);
                }
            } while (consume(','));
            if (!consume('}')) return fail("expected '}'");
            return obj;
        }
        if (c == '[') {
            ++pos_;
            Json arr = Json::array();
            if (consume(']')) return arr;
            do {
                arr.push(parseValue(depth + 1));
                if (failed()) return {};
            } while (consume(','));
            if (!consume(']')) return fail("expected ']'");
            return arr;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s)) return {};
            return Json(std::move(s));
        }
        if (c == 't' && text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return Json(true);
        }
        if (c == 'f' && text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return Json(false);
        }
        if (c == 'n' && text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return Json(nullptr);
        }
        if (c == '-' || isDigit(c)) return parseNumber();
        return fail("unexpected character");
    }

    const std::string& text_;
    size_t pos_ = 0;
    std::string err_;
};

Json Json::parse(const std::string& text, std::string* err) {
    return JsonParser(text).parseDocument(err);
}

}  // namespace phpf::obs
