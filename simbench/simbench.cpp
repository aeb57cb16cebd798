// simbench: the simulator's benchmark. One command runs a named workload
// through the public API of hier, exp and trace, checks every result, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as one JSON line:
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//
// A workload is a fixed job list, (configs x workload specs) expanded by
// exp::sweep with job seeds rng::split from --seed. The load is closed: one
// thread runs the jobs back to back, and the list repeats in passes until
// the next pass would overrun --seconds (pass 0 always runs). Every pass
// repeats pass 0's jobs and seeds, so each later row must reproduce pass
// 0's row bit for bit. Timings are medians over passes; counts and the
// simulated-result digest come from pass 0 and repeat exactly per seed.
//
// See simbench/README.md for the workloads, the metric map and how to read
// the traced run.
#include "simbench/profiler.h"
#include "src/lnuca.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace {

using namespace lnuca;
using steady = std::chrono::steady_clock;

double seconds_since(steady::time_point start)
{
    return std::chrono::duration<double>(steady::now() - start).count();
}

double process_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- workloads

/// Sampling spec of sampled_suite: 2000 measured instructions after 1000
/// detailed warm-up instructions every 100k (3% detailed), ~20 windows per
/// job - enough windows for a meaningful 95% CI on every proxy.
constexpr const char* sampled_spec = "periodic:2000:100000:1000";

struct workload_def {
    std::string name;
    std::vector<hier::system_config> configs;
    std::vector<std::string> specs; ///< workload specs (trace::workload_spec)
    std::uint64_t instructions = 0; ///< measured, per core
    std::uint64_t warmup = 0;       ///< discarded, per core
};

const std::vector<std::string>& workload_names()
{
    static const std::vector<std::string> names = {
        "fig4a_exact", "dnuca_mesh", "cmp_coherent", "sampled_suite"};
    return names;
}

std::vector<std::string> spec2006_names()
{
    std::vector<std::string> names;
    for (const auto& p : wl::spec2006_suite())
        names.push_back(p.name);
    return names;
}

std::optional<workload_def> find_workload(const std::string& name)
{
    namespace presets = hier::presets;
    // Run lengths keep one pass at 3-7 s of host time, so a 24-second run
    // measures several passes (costs in README.md). fig4a_exact keeps the
    // bench defaults, so its paper gap matches what bench/fig4a reports.
    if (name == "fig4a_exact")
        return workload_def{name,
                            {presets::l2_256kb(), presets::lnuca_l3(3)},
                            spec2006_names(),
                            hier::default_instructions,
                            hier::default_warmup};
    if (name == "dnuca_mesh")
        return workload_def{
            name,
            {presets::dnuca_4x8(), presets::lnuca_dnuca(3)},
            {"403.gcc", "429.mcf", "456.hmmer", "470.lbm"},
            30'000,
            10'000};
    if (name == "cmp_coherent")
        return workload_def{
            name,
            {presets::cmp(presets::l2_256kb(), 4),
             presets::cmp(presets::lnuca_l3(3), 4)},
            {"scenario:producer_consumer", "scenario:migratory", "429.mcf"},
            200'000,
            40'000};
    if (name == "sampled_suite") {
        std::vector<hier::system_config> configs = {presets::l2_256kb(),
                                                    presets::lnuca_l3(3)};
        for (auto& c : configs)
            c.sampling = *hier::parse_sampling_spec(sampled_spec);
        return workload_def{name, std::move(configs), spec2006_names(),
                            2'000'000, 50'000};
    }
    return std::nullopt;
}

// ------------------------------------------------------------ layer counts

/// Counter totals keyed by per-layer metric name.
using counts = std::map<std::string, std::uint64_t>;

/// The counts reported as per-layer metrics. harvest() also sums
/// hier.measured_instructions and hier.sampled_instructions, the base of
/// hier.measured_instr_frac.
const std::vector<std::string>& count_names()
{
    static const std::vector<std::string> names = {
        "cpu.dispatch_wait_cycles", "cpu.branch_mispredicts",
        "cpu.l1_port_retry",        "mem.l1.accesses",
        "mem.l1.miss_issued",       "mem.l2.accesses",
        "mem.bus.down_stall",       "mem.memory.reads",
        "fabric.tile_tag_lookups",  "fabric.tile_hits",
        "fabric.search_broadcast_hops", "fabric.replacement_hops",
        "noc.forwarded",            "noc.injected",
        "noc.credit_stall",         "noc.vc_alloc_stall",
        "dnuca.flits_injected",     "dnuca.bank_lookups",
        "dnuca.promotions",         "dnuca.orphan_replies",
        "coh.rfos",                 "coh.invalidations_sent",
        "coh.c2c_transfers",        "coh.busy_retries",
        "coh.snoop_retries",        "sim.cycles_executed",
        "sim.cycles_skipped",       "sim.cycles_fast_forwarded",
        "hier.sampled_windows"};
    return names;
}

/// Add one job's counts, read after run() through the public accessors
/// (the counters die with the system).
void harvest(hier::system& sys, const hier::run_result& r, counts& c)
{
    for (unsigned i = 0; i < sys.cores(); ++i) {
        const counter_set& core = sys.core(i).counters();
        c["cpu.dispatch_wait_cycles"] += core.get("dispatch_wait_cycles");
        c["cpu.branch_mispredicts"] += core.get("branch_mispredicts");
        c["cpu.l1_port_retry"] += core.get("l1_port_retry");
        const counter_set& l1 = sys.l1(i).counters();
        c["mem.l1.accesses"] += l1.get("accesses");
        c["mem.l1.miss_issued"] += l1.get("miss_issued");
    }
    if (const mem::conventional_cache* l2 = sys.l2())
        c["mem.l2.accesses"] += l2->counters().get("accesses");
    if (const mem::bus* bus = sys.l1_l2_bus())
        c["mem.bus.down_stall"] += bus->counters().get("down_stall");
    c["mem.memory.reads"] += sys.memory().counters().get("reads");

    if (const fabric::lnuca_cache* f = sys.fabric()) {
        const counter_set& k = f->counters();
        c["fabric.tile_tag_lookups"] += k.get("tile_tag_lookups");
        c["fabric.tile_hits"] += k.get("tile_hits");
        c["fabric.search_broadcast_hops"] += k.get("search_broadcast_hops");
        c["fabric.replacement_hops"] += k.get("replacement_hops");
    }
    if (const dnuca::dnuca_cache* d = sys.dnuca()) {
        const counter_set& k = d->counters();
        c["dnuca.flits_injected"] += k.get("flits_injected");
        c["dnuca.bank_lookups"] += k.get("bank_lookups");
        c["dnuca.promotions"] += k.get("promotions");
        c["dnuca.orphan_replies"] += k.get("orphan_reply");
        const noc::mesh_network& mesh = d->mesh();
        for (int y = 0; y < mesh.height(); ++y)
            for (int x = 0; x < mesh.width(); ++x) {
                const counter_set& router = mesh.at({x, y}).counters();
                for (const char* n :
                     {"forwarded", "injected", "credit_stall", "vc_alloc_stall"})
                    c[std::string("noc.") + n] += router.get(n);
            }
    }
    if (const coh::coherence_hub* hub = sys.hub()) {
        const counter_set& k = hub->counters();
        for (const char* n : {"rfos", "invalidations_sent", "c2c_transfers",
                              "busy_retries", "snoop_retries"})
            c[std::string("coh.") + n] += k.get(n);
    }
    const sim::engine& e = sys.engine();
    c["sim.cycles_executed"] += e.cycles_executed();
    c["sim.cycles_skipped"] += e.cycles_skipped();
    c["sim.cycles_fast_forwarded"] += e.cycles_fast_forwarded();
    if (r.sampled) {
        c["hier.sampled_windows"] += r.sampled_windows;
        c["hier.measured_instructions"] += r.measured_instructions;
        c["hier.sampled_instructions"] += r.instructions;
    }
}

// -------------------------------------------------------------------- spans

/// One timed call into the simulator, recorded only in traced passes.
/// Spans of one job share `job` (the job span's own id); `parent` is the
/// span that caused this one (0 for a job span).
struct span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t job;
    double start_s; ///< since the benchmark started
    double end_s;
};

class span_log {
public:
    explicit span_log(steady::time_point origin) : origin_(origin) {}

    /// Open a span; returns its id. Disabled logs record nothing.
    std::uint64_t open(const char* name, std::uint64_t parent,
                       std::uint64_t job)
    {
        if (!enabled)
            return 0;
        spans_.push_back({name, ++last_id_, parent, job == 0 ? last_id_ : job,
                          seconds_since(origin_), 0.0});
        return last_id_;
    }

    void close(std::uint64_t id)
    {
        if (id != 0)
            spans_[id - 1].end_s = seconds_since(origin_);
    }

    const std::vector<span>& spans() const { return spans_; }

    bool enabled = false;

private:
    steady::time_point origin_;
    std::vector<span> spans_;
    std::uint64_t last_id_ = 0;
};

// --------------------------------------------------------------------- jobs

struct job_run {
    hier::run_result result;
    std::string encoding; ///< deterministic row bytes (host trio zeroed)
    double setup_s = 0.0;
    double run_s = 0.0;
    double emit_s = 0.0;
    std::uint64_t retired = 0; ///< all cores, warm-up included
    std::uint64_t cycles = 0;  ///< simulated clock at the end of run()
    counts layer_counts;
};

/// The row bytes merge_tool compares: encode_json_line with the
/// host-timing trio zeroed.
std::string deterministic_encoding(const exp::job& j, hier::run_result r)
{
    r.host_seconds = 0.0;
    r.sim_cycles_per_second = 0.0;
    r.sim_instructions_per_second = 0.0;
    return exp::encode_json_line(j, r);
}

/// Run one job the way exp::execute_job does, but with the system built
/// here so its counters can be read after run().
job_run run_job(const exp::job& j, const std::string& spec, exp::sink& sink,
                span_log& spans)
{
    job_run out;
    const std::uint64_t job_span = spans.open("job", 0, 0);
    try {
        auto t = steady::now();
        std::uint64_t s = spans.open("setup", job_span, job_span);
        const std::optional<wl::workload_profile> profile =
            trace::parse_workload_spec(spec);
        if (!profile)
            throw std::runtime_error("unknown workload spec " + spec);
        auto sys = std::make_unique<hier::system>(j.config, *profile, j.seed);
        spans.close(s);
        out.setup_s = seconds_since(t);

        t = steady::now();
        s = spans.open("run", job_span, job_span);
        out.result = sys->run(j.instructions, j.warmup);
        spans.close(s);
        out.run_s = seconds_since(t);

        s = spans.open("harvest", job_span, job_span);
        out.retired =
            std::uint64_t(sys->cores()) * j.warmup + out.result.instructions;
        out.cycles = sys->engine().now();
        harvest(*sys, out.result, out.layer_counts);
        sys.reset();
        out.encoding = deterministic_encoding(j, out.result);
        spans.close(s);
    } catch (const std::exception& e) {
        out.result = hier::run_result{};
        out.result.config_name = j.config.name;
        out.result.workload_name = spec;
        out.result.status = hier::run_status::failed;
        out.result.error = e.what();
    }
    const auto t = steady::now();
    const std::uint64_t s = spans.open("emit", job_span, job_span);
    sink.consume(j, out.result);
    spans.close(s);
    out.emit_s = seconds_since(t);
    spans.close(job_span);
    return out;
}

/// Empty when the row passes; otherwise why it does not.
std::string check_row(const exp::job& j, const job_run& run)
{
    const hier::run_result& r = run.result;
    if (r.status != hier::run_status::ok)
        return std::string("status ") + hier::to_string(r.status) + ": " +
               r.error;
    if (r.instructions < j.instructions * r.cores)
        return "retired " + std::to_string(r.instructions) + " < requested " +
               std::to_string(j.instructions * r.cores);
    if (!std::isfinite(r.ipc) || r.ipc <= 0.0)
        return "IPC is not finite and positive";
    if (r.cycles == 0)
        return "zero cycles";
    if (j.config.sampling.enabled && (!r.sampled || r.sampled_windows < 1))
        return "sampled row without a measured window";
    return {};
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// ------------------------------------------------------------------ metrics

struct metric {
    std::string name;
    double value;
    std::string unit;
};

std::string number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

/// Fig. 4(a) gains of LN3-144KB over L2-256KB (Int, FP) and the paper's
/// values for them (the reference bench/fig4a prints).
struct paper_gap {
    double gain_int = 0.0;
    double gain_fp = 0.0;
    double gap_pp = 0.0;
};
constexpr double paper_gain_int = 6.0;
constexpr double paper_gain_fp = 15.0;

paper_gap fig4a_gap(const std::vector<exp::job>& jobs,
                    const std::vector<job_run>& pass0)
{
    std::vector<hier::run_result> base, ln3;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        (jobs[i].key.config == 0 ? base : ln3).push_back(pass0[i].result);
    paper_gap g;
    g.gain_int = 100.0 * (exp::group_ipc(ln3, false) /
                              exp::group_ipc(base, false) -
                          1.0);
    g.gain_fp =
        100.0 * (exp::group_ipc(ln3, true) / exp::group_ipc(base, true) - 1.0);
    g.gap_pp = 0.5 * (std::fabs(g.gain_int - paper_gain_int) +
                      std::fabs(g.gain_fp - paper_gain_fp));
    return g;
}

const std::vector<std::string>& profiled_layers()
{
    static const std::vector<std::string> layers = {
        "cpu", "mem", "fabric", "dnuca", "noc", "coh",
        "sim", "hier", "wl",    "trace", "exp", "other"};
    return layers;
}

// ---------------------------------------------------------------- options

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;
};

int usage(const char* why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:",
                 why);
    for (const auto& n : workload_names())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

std::optional<options> parse_options(int argc, char** argv)
{
    options o;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return std::nullopt;
        } else if (key == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(o.seconds > 0.0))
                return std::nullopt;
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return std::nullopt;
            o.trace = value == "1";
        } else if (key == "--out-dir") {
            o.out_dir = value;
        } else {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || !have_workload)
        return std::nullopt;
    return o;
}

void write_file(const std::string& path, const std::string& bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
    if (!f)
        std::fprintf(stderr, "simbench: cannot write %s\n", path.c_str());
}

/// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
std::string chrome_trace(const std::vector<span>& spans)
{
    std::ostringstream o;
    o << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        o << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << number(s.start_s * 1e6)
          << ",\"dur\":" << number((s.end_s - s.start_s) * 1e6)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"job\":" << s.job << "}}";
    }
    o << "\n]}\n";
    return o.str();
}

} // namespace

int main(int argc, char** argv)
{
    const std::optional<options> parsed = parse_options(argc, argv);
    if (!parsed)
        return usage("bad arguments");
    const options opt = *parsed;
    const std::optional<workload_def> def = find_workload(opt.workload);
    if (!def)
        return usage(("unknown workload " + opt.workload).c_str());
    const steady::time_point origin = steady::now();

    // Job list: exp::sweep's expansion, so job seeds are rng::split(seed,
    // config, workload, 0) exactly as a sweep derives them.
    exp::sweep sweep;
    for (const auto& spec : def->specs) {
        std::optional<wl::workload_profile> p = trace::parse_workload_spec(spec);
        if (!p)
            return usage(("unknown workload spec " + spec).c_str());
        sweep.add_workload(*p);
    }
    sweep.add_configs(def->configs)
        .instructions(def->instructions)
        .warmup(def->warmup)
        .base_seed(opt.seed);
    const std::vector<exp::job> jobs = sweep.build();
    const std::size_t n = jobs.size();

    std::unique_ptr<simbench::pc_profiler> profiler;
    constexpr long sample_interval_us = 1000;
    if (opt.trace)
        profiler = std::make_unique<simbench::pc_profiler>(std::size_t(1) << 20);
    span_log spans(origin);

    std::vector<job_run> pass0;
    std::vector<std::vector<double>> run_s(n);  // per job, untraced passes
    std::vector<double> untraced_wall, traced_wall, pass_setup, pass_emit;
    double traced_cpu_s = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    std::string pass0_rows;

    for (std::size_t pass = 0;; ++pass) {
        // A traced run alternates untraced and traced passes, so the
        // tracing overhead is measured inside one process.
        const bool traced = opt.trace && pass % 2 == 1;
        spans.enabled = traced;
        std::ostringstream rows;
        exp::jsonl_sink sink(rows);
        sink.begin(n);
        const double cpu0 = process_cpu_seconds();
        if (traced)
            profiler->start(sample_interval_us);
        const auto pass_start = steady::now();
        double setup_s = 0.0, emit_s = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            job_run run =
                run_job(jobs[i], def->specs[jobs[i].key.workload], sink, spans);
            ++attempted;
            std::string problem = check_row(jobs[i], run);
            if (problem.empty() && pass > 0 &&
                run.encoding != pass0[i].encoding)
                problem = "row differs from pass 0 (nondeterministic result)";
            if (!problem.empty()) {
                ++failed;
                problems.push_back(run.result.config_name + " / " +
                                   run.result.workload_name + " (seed " +
                                   std::to_string(jobs[i].seed) +
                                   "): " + problem);
            }
            setup_s += run.setup_s;
            emit_s += run.emit_s;
            if (!traced)
                run_s[i].push_back(run.run_s);
            if (pass == 0)
                pass0.push_back(std::move(run));
        }
        sink.finish();
        const double wall = seconds_since(pass_start);
        if (traced) {
            profiler->stop();
            traced_cpu_s += process_cpu_seconds() - cpu0;
            traced_wall.push_back(wall);
        } else {
            untraced_wall.push_back(wall);
            pass_setup.push_back(setup_s);
            pass_emit.push_back(emit_s);
        }
        if (pass == 0)
            pass0_rows = rows.str();
        if (failed != 0)
            break;
        const bool need_traced_pass = opt.trace && traced_wall.empty();
        if (!need_traced_pass && seconds_since(origin) + wall > opt.seconds)
            break;
    }

    // ------------------------------------------------------ aggregation
    counts total;
    for (const auto& name : count_names())
        total[name] = 0;
    std::uint64_t retired = 0, cycles = 0;
    double run_median_s = 0.0;
    std::vector<double> ci_rel;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < pass0.size(); ++i) {
        const job_run& r = pass0[i];
        for (const auto& [k, v] : r.layer_counts)
            total[k] += v;
        retired += r.retired;
        cycles += r.cycles;
        run_median_s += median(run_s[i]);
        digest = fnv1a(digest, r.encoding);
        if (r.result.sampled && r.result.ipc > 0.0)
            ci_rel.push_back(100.0 * r.result.ipc_ci95 / r.result.ipc);
    }
    const bool correct = failed == 0 && pass0.size() == n;

    rusage usage_info{};
    getrusage(RUSAGE_SELF, &usage_info);
    const double peak_rss_mb = double(usage_info.ru_maxrss) / 1024.0;

    const double minstr_per_s = double(retired) / run_median_s / 1e6;
    const double mcycles_per_s = double(cycles) / run_median_s / 1e6;
    const double wall_s = median(untraced_wall);
    const double setup_s = median(pass_setup);
    std::optional<paper_gap> gap;
    if (opt.workload == "fig4a_exact" && correct)
        gap = fig4a_gap(jobs, pass0);

    // ---------------------------------------------------- human report
    std::printf("simbench %s seed=%llu: %zu jobs x %zu passes (%zu traced), "
                "%llu instr/core measured + %llu warm-up per job\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                n, untraced_wall.size() + traced_wall.size(),
                traced_wall.size(),
                static_cast<unsigned long long>(def->instructions),
                static_cast<unsigned long long>(def->warmup));
    for (const auto& p : problems)
        std::printf("  FAILED %s\n", p.c_str());
    std::printf("  %-18s %14.4f Minstr/s\n", "sim_minstr_per_s", minstr_per_s);
    std::printf("  %-18s %14.4f Mcycles/s\n", "sim_mcycles_per_s",
                mcycles_per_s);
    std::printf("  %-18s %14.4f s (one pass)\n", "wall_s", wall_s);
    std::printf("  %-18s %14.6f s (one pass)\n", "setup_s", setup_s);
    std::printf("  %-18s %14.2f MB\n", "peak_rss_mb", peak_rss_mb);
    std::printf("  %-18s %14.4f (%zu of %zu)\n", "failed_frac",
                double(failed) / double(std::max<std::size_t>(attempted, 1)),
                failed, attempted);
    if (gap)
        std::printf("  %-18s %14.4f pp (LN3 Int %+.2f%% vs paper ~+%.0f%%, "
                    "FP %+.2f%% vs ~+%.0f%%)\n",
                    "paper_gap_pp", gap->gap_pp, gap->gain_int, paper_gain_int,
                    gap->gain_fp, paper_gain_fp);
    else
        std::printf("  %-18s %14s (fig4a_exact only)\n", "paper_gap_pp", "-");
    if (!ci_rel.empty())
        std::printf("  %-18s %14.4f %%\n", "ipc_ci95_rel_pct", median(ci_rel));
    else
        std::printf("  %-18s %14s (sampled_suite only)\n", "ipc_ci95_rel_pct",
                    "-");
    std::printf("  %-18s %14s\n", "sim_digest", hex16(digest).c_str());

    // --------------------------------------------------------- metrics
    std::vector<metric> metrics;
    std::string profile_text;
    if (!opt.trace) {
        metrics = {{"sim_minstr_per_s", minstr_per_s, "Minstr/s"},
                   {"sim_mcycles_per_s", mcycles_per_s, "Mcycles/s"},
                   {"wall_s", wall_s, "s"},
                   {"setup_s", setup_s, "s"},
                   {"peak_rss_mb", peak_rss_mb, "MB"}};
    } else {
        const simbench::profile_result prof = profiler->attribute(40);
        profiler.reset();
        const double passes = double(traced_wall.size());
        const double per_sample_s =
            prof.samples == 0 ? 0.0 : traced_cpu_s / double(prof.samples) / passes;
        auto self_s = [&](const std::string& layer) {
            const auto it = prof.layers.find(layer);
            return it == prof.layers.end() ? 0.0
                                           : double(it->second.total) * per_sample_s;
        };
        for (const auto& layer : profiled_layers()) {
            metrics.push_back({layer + ".self_s", self_s(layer), "s"});
            metrics.push_back(
                {layer + ".share",
                 prof.samples == 0 ? 0.0
                                   : self_s(layer) / (traced_cpu_s / passes),
                 "frac"});
        }
        for (const char* layer : {"cpu", "mem", "fabric", "wl"}) {
            const auto it = prof.layers.find(layer);
            metrics.push_back(
                {std::string(layer) + ".warm_self_s",
                 it == prof.layers.end() ? 0.0
                                         : double(it->second.warm) * per_sample_s,
                 "s"});
        }
        auto count = [&](const char* name) {
            const auto it = total.find(name);
            return it == total.end() ? 0.0 : double(it->second);
        };
        auto per = [](double num, double den) {
            return den == 0.0 ? 0.0 : num / den;
        };
        metrics.push_back({"cpu.ns_per_instr",
                           per(self_s("cpu") * 1e9, double(retired)),
                           "ns/instr"});
        metrics.push_back({"fabric.ns_per_exec_cycle",
                           per(self_s("fabric") * 1e9,
                               count("sim.cycles_executed")),
                           "ns/cycle"});
        metrics.push_back({"fabric.hit_per_lookup",
                           per(count("fabric.tile_hits"),
                               count("fabric.tile_tag_lookups")),
                           "frac"});
        metrics.push_back({"noc.ns_per_flit",
                           per(self_s("noc") * 1e9, count("noc.injected")),
                           "ns/flit"});
        const double timed_cycles =
            count("sim.cycles_executed") + count("sim.cycles_skipped");
        metrics.push_back({"sim.skip_frac",
                           per(count("sim.cycles_skipped"), timed_cycles),
                           "frac"});
        metrics.push_back({"hier.measured_instr_frac",
                           per(count("hier.measured_instructions"),
                               count("hier.sampled_instructions")),
                           "frac"});
        for (const auto& name : count_names())
            metrics.push_back({name, double(total.at(name)), "count"});
        metrics.push_back({"exp.emit_s", median(pass_emit), "s"});
        metrics.push_back({"exp.jobs", double(n), "count"});
        metrics.push_back(
            {"trace_overhead_pct",
             100.0 * (median(traced_wall) / median(untraced_wall) - 1.0), "%"});

        std::ostringstream o;
        o << "samples " << prof.samples << " (dropped " << prof.dropped
          << "), traced CPU " << traced_cpu_s << " s over " << passes
          << " pass(es)\n\nlayer      share   self_s/pass  warm_self_s/pass\n";
        for (const auto& layer : profiled_layers()) {
            const auto it = prof.layers.find(layer);
            const std::uint64_t total_n =
                it == prof.layers.end() ? 0 : it->second.total;
            const std::uint64_t warm_n =
                it == prof.layers.end() ? 0 : it->second.warm;
            char line[128];
            std::snprintf(line, sizeof(line), "%-8s %7.3f %13.6f %17.6f\n",
                          layer.c_str(),
                          per(double(total_n), double(prof.samples)),
                          double(total_n) * per_sample_s,
                          double(warm_n) * per_sample_s);
            o << line;
        }
        // A span's self time is its duration minus what its children cover
        // (the children of one job span run one after another).
        std::map<std::string, double> span_s, child_s;
        for (const span& s : spans.spans()) {
            span_s[s.name] += s.end_s - s.start_s;
            if (s.parent != 0)
                child_s[spans.spans()[s.parent - 1].name] += s.end_s - s.start_s;
        }
        o << "\nspan      total_s/pass   self_s/pass\n";
        for (const char* name : {"job", "setup", "run", "harvest", "emit"}) {
            char line[128];
            std::snprintf(line, sizeof(line), "%-8s %13.6f %13.6f\n", name,
                          span_s[name] / passes,
                          (span_s[name] - child_s[name]) / passes);
            o << line;
        }
        o << "\nhottest functions (samples)\n";
        for (const auto& [name, count_n] : prof.top_functions)
            o << count_n << "\t" << name << "\n";
        profile_text = o.str();
    }

    if (!opt.out_dir.empty()) {
        const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed);
        write_file(stem + "-rows.jsonl", pass0_rows);
        if (opt.trace) {
            write_file(stem + "-spans.json", chrome_trace(spans.spans()));
            write_file(stem + "-profile.txt", profile_text);
        }
    }

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
