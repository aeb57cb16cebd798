#include "src/exp/sink.h"

#include "src/common/json.h"
#include "src/common/log.h"
#include "src/common/table.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <variant>

#include <fcntl.h>
#include <unistd.h>

namespace lnuca::exp {

using hier::field_role;
using hier::row_field;
using hier::row_fields;
using power::energy_breakdown;

namespace {

std::string csv_quote(const std::string& s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

// A field_role::hash field's text: 16 hex digits, or "" when unset (0).
std::string hash_text(const row_field& f, const hier::row_coords& c)
{
    const std::uint64_t h =
        c.*std::get<std::uint64_t hier::row_coords::*>(f.member);
    if (h == 0)
        return "";
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

// Scalar text shared by both formats; JSON quotes and escapes strings,
// CSV quotes them when needed.
std::string scalar_text(std::uint64_t v) { return std::to_string(v); }
std::string scalar_text(std::uint32_t v) { return std::to_string(v); }
std::string scalar_text(double v) { return json::number(v); }

template <class T> std::string joined(const std::vector<T>& items, char sep)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0)
            out += sep;
        out += scalar_text(items[i]);
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// table_sink
// ---------------------------------------------------------------------------

void table_sink::consume(const job& j, const hier::run_result& r)
{
    std::string per_core = "-";
    if (r.cores > 1) {
        per_core.clear();
        for (std::size_t i = 0; i < r.per_core_ipc.size(); ++i) {
            if (i != 0)
                per_core += '/';
            per_core += text_table::num(r.per_core_ipc[i], 2);
        }
    }
    rows_.push_back({r.config_name, r.workload_name,
                     std::to_string(j.key.replicate), to_string(r.status),
                     std::to_string(r.cores), text_table::num(r.ipc, 3),
                     per_core,
                     r.weighted_speedup > 0.0
                         ? text_table::num(r.weighted_speedup, 2)
                         : "-",
                     // ASCII on purpose: text_table widths count bytes.
                     r.sampled ? "+-" + text_table::num(r.ipc_ci95, 3) + " (" +
                                     std::to_string(r.sampled_windows) + "w)"
                               : "measured",
                     std::to_string(r.cycles),
                     text_table::num(r.avg_load_latency, 1),
                     text_table::num(r.energy.total() * 1e3, 3),
                     text_table::num(r.host_seconds, 2),
                     text_table::num(r.sim_cycles_per_second * 1e-6, 2)});
}

void table_sink::finish()
{
    text_table t("Run log");
    t.set_header({"config", "workload", "rep", "status", "cores", "IPC",
                  "IPC/core",
                  "WS", "IPC est.", "cycles", "load lat.", "energy (mJ)",
                  "host s", "Mcyc/s"});
    for (auto& row : rows_)
        t.add_row(std::move(row));
    out_ << t.render();
    rows_.clear();
}

// ---------------------------------------------------------------------------
// csv_sink
// ---------------------------------------------------------------------------

void csv_sink::begin(std::size_t)
{
    using energy_member = energy_breakdown hier::run_result::*;
    std::string header;
    for (const row_field& f : row_fields) {
        if (std::holds_alternative<energy_member>(f.member))
            for (const hier::energy_field& e : hier::energy_fields)
                header += std::string("energy_") + e.key + ',';
        else
            header += std::string(f.key) + ',';
    }
    header.back() = '\n';
    out_ << header;
}

void csv_sink::consume(const job& j, const hier::run_result& r)
{
    const hier::row_coords c = j.coords();
    std::string row;
    for (const row_field& f : row_fields) {
        if (f.role == field_role::hash) {
            row += hash_text(f, c) + ',';
            continue;
        }
        std::visit(
            [&](auto m) {
                const auto& v = hier::field_value(m, c, r);
                using T = std::decay_t<decltype(v)>;
                if constexpr (std::is_same_v<T, std::string>) {
                    row += csv_quote(v);
                } else if constexpr (std::is_same_v<T, hier::run_status>) {
                    row += to_string(v);
                } else if constexpr (std::is_same_v<T, bool>) {
                    row += v ? '1' : '0';
                } else if constexpr (std::is_same_v<T, energy_breakdown>) {
                    for (const hier::energy_field& e : hier::energy_fields)
                        row += scalar_text(e.member ? v.*e.member : v.total()) +
                               ',';
                    row.pop_back();
                } else if constexpr (std::is_arithmetic_v<T>) {
                    row += scalar_text(v);
                } else {
                    row += joined(v, ';'); // one CSV field per array
                }
            },
            f.member);
        row += ',';
    }
    row.back() = '\n';
    out_ << row;
}

// ---------------------------------------------------------------------------
// jsonl_sink
// ---------------------------------------------------------------------------

namespace {

void put_key(std::string& out, const char* key)
{
    out += '"';
    out += key; // table keys are plain identifiers: nothing to escape
    out += "\":";
}
void put_json(std::string& out, const std::string& v)
{
    out += '"';
    out += json::escape(v);
    out += '"';
}
void put_json(std::string& out, hier::run_status v)
{
    put_json(out, std::string(to_string(v)));
}
void put_json(std::string& out, bool v) { out += v ? "true" : "false"; }
void put_json(std::string& out, std::uint64_t v) { out += scalar_text(v); }
void put_json(std::string& out, std::uint32_t v) { out += scalar_text(v); }
void put_json(std::string& out, double v) { out += scalar_text(v); }
template <class T>
void put_json(std::string& out, const std::vector<T>& v)
{
    out += '[';
    out += joined(v, ',');
    out += ']';
}
void put_json(std::string& out, const energy_breakdown& e)
{
    out += '{';
    for (const hier::energy_field& f : hier::energy_fields) {
        put_key(out, f.key);
        put_json(out, f.member ? e.*f.member : e.total());
        out += ',';
    }
    out.back() = '}';
}

} // namespace

std::string encode_json_line(const job& j, const hier::run_result& r)
{
    const hier::row_coords c = j.coords();
    std::string line = "{";
    for (const row_field& f : row_fields) {
        if (f.role == field_role::on_failure &&
            r.status == hier::run_status::ok)
            continue;
        if (f.role == field_role::hash) {
            const std::string hash = hash_text(f, c);
            if (!hash.empty()) {
                put_key(line, f.key);
                put_json(line, hash);
                line += ',';
            }
            continue;
        }
        put_key(line, f.key);
        std::visit([&](auto m) { put_json(line, hier::field_value(m, c, r)); },
                   f.member);
        line += ',';
    }
    line.back() = '}';
    return line;
}

void zero_host_timing(hier::run_result& r)
{
    for (const row_field& f : row_fields)
        if (f.role == field_role::host_timing)
            r.*std::get<double hier::run_result::*>(f.member) = 0.0;
}

jsonl_sink::jsonl_sink(std::ostream& out, std::size_t flush_rows)
    : out_(&out), flush_rows_(flush_rows == 0 ? 1 : flush_rows)
{
}

jsonl_sink::jsonl_sink(const std::string& path, std::size_t flush_rows,
                       std::size_t fsync_rows)
    : flush_rows_(flush_rows == 0 ? 1 : flush_rows), fsync_rows_(fsync_rows)
{
    // O_APPEND: every flush is one atomically-positioned write of whole
    // lines, even when several shards append to the same file.
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
}

jsonl_sink::~jsonl_sink()
{
    // The destructor must not throw; normal shutdown goes through finish(),
    // which does, so losses are only ever swallowed on an abnormal exit.
    try {
        flush();
    } catch (const sink_error& e) {
        LNUCA_WARN("jsonl sink: ", e.what());
    }
    if (fd_ >= 0)
        ::close(fd_);
}

void jsonl_sink::begin(std::size_t job_count)
{
    // Pre-size for a full batch (a row is a few hundred bytes).
    buffer_.reserve(512 * std::min(flush_rows_, std::max(job_count,
                                                         std::size_t(1))));
}

void jsonl_sink::consume(const job& j, const hier::run_result& r)
{
    if (r.status == hier::run_status::skipped_resumed)
        return; // already durable in this file (see class comment)
    ++consumed_rows_;
    buffer_ += encode_json_line(j, r);
    buffer_ += '\n';
    ++rows_since_fsync_;
    if (++buffered_rows_ >= flush_rows_)
        flush();
}

void jsonl_sink::finish()
{
    flush();
    if (fd_ >= 0 && fsync_rows_ > 0 && rows_since_fsync_ > 0) {
        if (::fsync(fd_) != 0)
            throw sink_error("jsonl sink: final fsync failed after row " +
                             std::to_string(consumed_rows_) + ": " +
                             std::strerror(errno));
        rows_since_fsync_ = 0;
    }
}

void jsonl_sink::flush()
{
    if (!buffer_.empty()) {
        if (fd_ >= 0) {
            const char* p = buffer_.data();
            std::size_t left = buffer_.size();
            const std::size_t batch = buffered_rows_;
            while (left > 0) {
                const ssize_t n = ::write(fd_, p, left);
                if (n < 0 && errno == EINTR)
                    continue;
                if (n <= 0) {
                    // Full disk / EIO / closed fd: the batch is lost either
                    // way, so clear it (the destructor's last flush must
                    // not re-throw) and report exactly which rows are gone
                    // instead of pretending they reached the file.
                    const int err = n < 0 ? errno : EIO;
                    const std::size_t first = consumed_rows_ - batch;
                    buffer_.clear();
                    buffered_rows_ = 0;
                    throw sink_error(
                        "jsonl sink: write failed at row " +
                        std::to_string(first) + " (" + std::to_string(batch) +
                        " buffered rows lost): " + std::strerror(err));
                }
                p += n;
                left -= std::size_t(n);
            }
        } else if (out_ != nullptr) {
            out_->write(buffer_.data(), std::streamsize(buffer_.size()));
        }
        buffer_.clear();
        buffered_rows_ = 0;
    }
    if (fd_ >= 0 && fsync_rows_ > 0 && rows_since_fsync_ >= fsync_rows_) {
        if (::fsync(fd_) != 0)
            throw sink_error("jsonl sink: fsync failed after row " +
                             std::to_string(consumed_rows_) + ": " +
                             std::strerror(errno));
        rows_since_fsync_ = 0;
    }
}

// ---------------------------------------------------------------------------
// sink_fanout
// ---------------------------------------------------------------------------

void sink_fanout::attach(sink* s)
{
    if (s != nullptr)
        sinks_.push_back(s);
}

void sink_fanout::begin(std::size_t job_count)
{
    for (sink* s : sinks_)
        s->begin(job_count);
}

void sink_fanout::consume(const job& j, const hier::run_result& r)
{
    for (sink* s : sinks_)
        s->consume(j, r);
}

void sink_fanout::finish()
{
    for (sink* s : sinks_)
        s->finish();
}

// ---------------------------------------------------------------------------
// decode_json_line: the shared reader builds the tree, then each member is
// matched to its row_fields entry and converted by the member's kind.
// ---------------------------------------------------------------------------

namespace {

bool get_json(const json::value& v, std::string& out)
{
    if (v.k != json::value::kind::string)
        return false;
    out = v.text;
    return true;
}
bool get_json(const json::value& v, hier::run_status& out)
{
    if (v.k != json::value::kind::string)
        return false;
    for (const hier::run_status s :
         {hier::run_status::ok, hier::run_status::failed,
          hier::run_status::timed_out, hier::run_status::skipped_resumed})
        if (v.text == to_string(s)) {
            out = s;
            return true;
        }
    return false;
}
bool get_json(const json::value& v, bool& out)
{
    out = v.boolean;
    return v.k == json::value::kind::bool_t;
}
bool get_json(const json::value& v, std::uint64_t& out)
{
    return json::to_u64(v, out);
}
bool get_json(const json::value& v, std::uint32_t& out)
{
    std::uint64_t wide = 0;
    if (!json::to_u64(v, wide) || wide > UINT32_MAX)
        return false;
    out = std::uint32_t(wide);
    return true;
}
bool get_json(const json::value& v, double& out)
{
    return json::to_f64(v, out);
}
template <class T>
bool get_json(const json::value& v, std::vector<T>& out)
{
    if (v.k != json::value::kind::array)
        return false;
    out.assign(v.items.size(), T{});
    for (std::size_t i = 0; i < out.size(); ++i)
        if (!get_json(v.items[i], out[i]))
            return false;
    return true;
}
bool get_json(const json::value& v, energy_breakdown& out)
{
    if (v.k != json::value::kind::object)
        return false;
    for (const auto& [key, item] : v.members)
        for (const hier::energy_field& f : hier::energy_fields) {
            double derived = 0.0; // total_j: checked, then recomputed
            if (key == f.key &&
                !get_json(item, f.member ? out.*f.member : derived))
                return false;
        }
    return true;
}
// hash_text's inverse: 1 to 16 hex digits, nothing else.
bool get_hash(const json::value& v, const row_field& f, hier::row_coords& c)
{
    if (v.k != json::value::kind::string || v.text.empty() ||
        v.text.size() > 16 ||
        v.text.find_first_not_of("0123456789abcdefABCDEF") !=
            std::string::npos)
        return false;
    c.*std::get<std::uint64_t hier::row_coords::*>(f.member) =
        std::strtoull(v.text.c_str(), nullptr, 16);
    return true;
}

} // namespace

std::optional<decoded_run> decode_json_line(const std::string& line)
{
    json::value root;
    if (!json::parse(line, root) || root.k != json::value::kind::object)
        return std::nullopt;
    decoded_run out;
    for (const auto& [key, v] : root.members) {
        const auto f = std::find_if(
            std::begin(row_fields), std::end(row_fields),
            [&](const row_field& field) { return key == field.key; });
        if (f == std::end(row_fields))
            continue; // a newer writer's field
        const bool ok =
            f->role == field_role::hash
                ? get_hash(v, *f, out.coords)
                : std::visit(
                      [&](auto m) {
                          return get_json(v, hier::field_value(m, out.coords,
                                                               out.result));
                      },
                      f->member);
        if (!ok)
            return std::nullopt;
    }
    return out;
}

jsonl_rows read_jsonl(const std::string& content)
{
    jsonl_rows out;
    std::size_t start = 0;
    for (std::size_t line_no = 1; start < content.size(); ++line_no) {
        const std::size_t end = std::min(content.find('\n', start),
                                         content.size());
        const std::size_t next = std::min(end + 1, content.size());
        if (end > start) {
            auto decoded = decode_json_line(content.substr(start, end - start));
            if (!decoded) {
                out.bad_line = line_no;
                out.bad_offset = start;
                out.torn = next == content.size();
                break;
            }
            out.rows.emplace_back(line_no, std::move(*decoded));
        }
        start = next;
    }
    return out;
}

} // namespace lnuca::exp
