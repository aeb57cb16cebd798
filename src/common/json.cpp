#include "src/common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lnuca::json {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Recursive descent over one document. Every failure records the byte
// offset and a reason; the innermost (root-cause) failure wins.
class reader {
public:
    explicit reader(std::string_view text) : s_(text) {}

    bool parse(value& out, std::string* error)
    {
        skip_ws();
        bool ok = parse_value(out, 0);
        if (ok) {
            skip_ws();
            if (pos_ != s_.size())
                ok = fail("trailing content after the top-level value");
        }
        if (!ok && error != nullptr)
            *error = "JSON error at byte " + std::to_string(err_pos_) + ": " +
                     err_;
        return ok;
    }

private:
    // Deep enough for any manifest or row; shallow enough that hostile
    // input cannot exhaust the stack.
    static constexpr int max_depth = 64;

    bool fail(const char* why)
    {
        if (err_.empty()) {
            err_ = why;
            err_pos_ = pos_;
        }
        return false;
    }

    void skip_ws()
    {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                    s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool consume(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool parse_value(value& out, int depth)
    {
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        const char c = s_[pos_];
        if (c == '{' || c == '[') {
            if (depth == max_depth)
                return fail("nesting too deep");
            return parse_container(out, depth + 1);
        }
        if (c == '"') {
            out.k = value::kind::string;
            return parse_string(out.text);
        }
        if (c == '-' || is_digit(c))
            return parse_number(out);
        if (literal("true") || literal("false")) {
            out.k = value::kind::bool_t;
            out.boolean = c == 't';
            return true;
        }
        if (literal("null")) {
            out.k = value::kind::null_t;
            return true;
        }
        return fail("expected a JSON value");
    }

    // An object (key ':' value members) or an array (items), comma
    // separated between the brackets.
    bool parse_container(value& out, int depth)
    {
        const bool object = s_[pos_++] == '{';
        const char close = object ? '}' : ']';
        out.k = object ? value::kind::object : value::kind::array;
        skip_ws();
        if (consume(close))
            return true;
        while (true) {
            skip_ws();
            std::string key;
            if (object) {
                if (!parse_string(key))
                    return fail("expected an object key string");
                skip_ws();
                if (!consume(':'))
                    return fail("expected ':' after object key");
                skip_ws();
            }
            value child;
            if (!parse_value(child, depth))
                return false;
            if (object)
                out.members.emplace_back(std::move(key), std::move(child));
            else
                out.items.push_back(std::move(child));
            skip_ws();
            if (consume(close))
                return true;
            if (!consume(','))
                return fail(object ? "expected ',' or '}' in object"
                                   : "expected ',' or ']' in array");
        }
    }

    bool parse_string(std::string& out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            ++pos_;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                break;
            switch (s_[pos_++]) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u':
                if (!parse_unicode_escape(out))
                    return false;
                break;
            default:
                --pos_;
                return fail("unsupported string escape");
            }
        }
        return fail("unterminated string");
    }

    // \u followed by exactly four hex digits, appended as UTF-8. Surrogate
    // halves are rejected: nothing this project writes produces them.
    bool parse_unicode_escape(std::string& out)
    {
        const std::string hex(s_.substr(pos_, 4));
        if (hex.size() != 4 ||
            hex.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos)
            return fail("\\u must be followed by four hex digits");
        pos_ += 4;
        const unsigned code = unsigned(std::strtoul(hex.c_str(), nullptr, 16));
        if (code >= 0xd800 && code <= 0xdfff)
            return fail("unsupported \\u surrogate escape");
        if (code < 0x80) {
            out += char(code);
        } else if (code < 0x800) {
            out += char(0xc0 | (code >> 6));
            out += char(0x80 | (code & 0x3f));
        } else {
            out += char(0xe0 | (code >> 12));
            out += char(0x80 | ((code >> 6) & 0x3f));
            out += char(0x80 | (code & 0x3f));
        }
        return true;
    }

    bool digits()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() && is_digit(s_[pos_]))
            ++pos_;
        return pos_ != start;
    }

    bool parse_number(value& out)
    {
        const std::size_t start = pos_;
        consume('-');
        if (consume('0')) {
            if (pos_ < s_.size() && is_digit(s_[pos_]))
                return fail("malformed number (leading zero)");
        } else if (!digits()) {
            return fail("malformed number");
        }
        if (consume('.') && !digits())
            return fail("malformed number (empty fraction)");
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (!digits())
                return fail("malformed number (empty exponent)");
        }
        out.k = value::kind::number;
        out.text = std::string(s_.substr(start, pos_ - start));
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::string err_;
    std::size_t err_pos_ = 0;
};

} // namespace

bool parse(std::string_view text, value& out, std::string* error)
{
    out = value{};
    return reader(text).parse(out, error);
}

bool to_u64(const value& v, std::uint64_t& out)
{
    if (v.k != value::kind::number || v.text.empty())
        return false;
    std::uint64_t n = 0;
    for (const char c : v.text) {
        if (!is_digit(c))
            return false;
        const std::uint64_t d = std::uint64_t(c - '0');
        if (n > (UINT64_MAX - d) / 10)
            return false; // does not fit 64 bits
        n = n * 10 + d;
    }
    out = n;
    return true;
}

bool to_f64(const value& v, double& out)
{
    if (v.k != value::kind::number)
        return false;
    const double d = std::strtod(v.text.c_str(), nullptr);
    if (!std::isfinite(d))
        return false;
    out = d;
    return true;
}

std::string escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace lnuca::json
