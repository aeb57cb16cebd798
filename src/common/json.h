// The one JSON reader, shared by the manifest parser (src/exp/manifest.cpp)
// and the JSONL row decoder (src/exp/sink.cpp), plus the two writer helpers
// the row encoder needs.
//
// The reader is strict RFC 8259: exactly one value per document (surrounding
// whitespace only), the standard string escapes with \u followed by exactly
// four hex digits, no raw control characters inside strings, and the JSON
// number grammar (no leading '+', no leading zeros, no NaN or Infinity).
// Numbers keep their raw text, so a 64-bit integer never takes a double
// round-trip; to_u64() and to_f64() convert and range-check them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lnuca::json {

struct value {
    enum class kind { null_t, bool_t, number, string, array, object };
    kind k = kind::null_t;
    bool boolean = false;
    std::string text; ///< string payload, or a number's raw text
    std::vector<value> items;                           ///< array
    std::vector<std::pair<std::string, value>> members; ///< object, in order
};

/// Parse `text` as one JSON document into `out`. On failure returns false
/// and, when `error` is non-null, sets it to "JSON error at byte N: <why>"
/// (N is the offset of the innermost failure).
bool parse(std::string_view text, value& out, std::string* error = nullptr);

/// A plain non-negative integer that fits 64 bits: no sign, fraction or
/// exponent (a count with a fractional part is a mistake, not something to
/// round).
bool to_u64(const value& v, std::uint64_t& out);

/// Any JSON number as the nearest finite double.
bool to_f64(const value& v, double& out);

/// The body of a JSON string literal (no quotes): '"', '\\', '\n' and '\t'
/// as two-character escapes, every other control byte as \u00XX, all other
/// bytes verbatim.
std::string escape(const std::string& s);

/// Full-precision double text: "%.17g" round-trips through to_f64.
std::string number(double v);

} // namespace lnuca::json
