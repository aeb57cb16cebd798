// Fault-isolation, timeout/retry, and kill-and-resume coverage for the
// experiment runner, driven by the test-only fault_plan harness
// (src/exp/fault.h).
//
// Test order is deliberate: the fork()-based kill-and-resume tests run
// BEFORE any test that abandons a detached thread (stall/timeout, bounded
// pool shutdown). fork() in a process with detached threads mid-sleep is a
// classic malloc-lock hazard — the child could inherit a locked allocator.
#include "src/exp/fault.h"
#include "src/exp/pool.h"
#include "src/exp/run_app.h"
#include "src/exp/runner.h"
#include "src/exp/sink.h"
#include "src/hier/presets.h"
#include "src/workloads/spec2006.h"
#include "tests/run_result_compare.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace lnuca::exp {
namespace {

// The 2-config x 3-workload sweep every test here runs (6 jobs).
std::vector<hier::system_config> bench_configs()
{
    return {hier::presets::l2_256kb(), hier::presets::lnuca_l3(2)};
}

std::vector<wl::workload_profile> bench_workloads()
{
    std::vector<wl::workload_profile> out;
    for (const char* name : {"456.hmmer", "429.mcf", "470.lbm"})
        out.push_back(*wl::find_spec2006(name));
    return out;
}

sweep bench_sweep()
{
    sweep s;
    s.add_configs(bench_configs())
        .add_workloads(bench_workloads())
        .instructions(2000)
        .warmup(300)
        .base_seed(17);
    return s;
}

constexpr std::size_t k_jobs = 6;

/// Invoke run_app the way a bench main() does, with the shared sweep.
int launch(const std::vector<std::string>& extra_args)
{
    std::vector<std::string> args = {"exp_fault_test", "--instructions",
                                     "2000",           "--warmup",
                                     "300",            "--seed",
                                     "17",             "--quiet"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<const char*> argv;
    for (const auto& a : args)
        argv.push_back(a.c_str());
    return run_app(int(argv.size()), argv.data(), bench_configs(),
                   bench_workloads(), nullptr);
}

std::vector<decoded_run> read_rows(const std::string& path)
{
    std::vector<decoded_run> rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto decoded = decode_json_line(line);
        EXPECT_TRUE(decoded.has_value()) << path << ": " << line;
        if (decoded)
            rows.push_back(*decoded);
    }
    return rows;
}

std::string read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void expect_rows_match(const std::vector<decoded_run>& a,
                       const std::vector<decoded_run>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].coords == b[i].coords) << "row " << i;
        expect_sim_fields_identical(a[i].result, b[i].result);
    }
}

// --------------------------------------------------------------------------
// fault_plan spec grammar.
// --------------------------------------------------------------------------

TEST(fault_plan_spec, parses_every_action)
{
    const auto t = fault_plan::parse("throw:7");
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->action, fault_plan::kind::throw_error);
    EXPECT_EQ(t->flat, 7u);
    EXPECT_EQ(t->attempts, 1u);

    const auto t2 = fault_plan::parse("throw:3:4");
    ASSERT_TRUE(t2.has_value());
    EXPECT_EQ(t2->attempts, 4u);

    const auto s = fault_plan::parse("stall:2:0.5");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->action, fault_plan::kind::stall);
    EXPECT_EQ(s->flat, 2u);
    EXPECT_EQ(s->stall_seconds, 0.5);

    const auto e = fault_plan::parse("exit:5");
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->action, fault_plan::kind::hard_exit);
    EXPECT_EQ(e->exit_code, 137);
    EXPECT_EQ(fault_plan::parse("exit:5:9")->exit_code, 9);
}

TEST(fault_plan_spec, rejects_malformed_specs)
{
    for (const char* bad :
         {"", "throw", "throw:", "throw:x", "throw:1:0", "stall:1",
          "stall:1:-2", "stall:1:abc", "exit:1:999", "explode:1", "throw:1:2:3"})
        EXPECT_FALSE(fault_plan::parse(bad).has_value()) << bad;
}

// --------------------------------------------------------------------------
// Fault isolation: a throwing job becomes a row, not a dead sweep.
// --------------------------------------------------------------------------

TEST(fault_isolation, throwing_job_becomes_failed_row_and_others_complete)
{
    const auto plan = fault_plan::parse("throw:2:99"); // throws every attempt
    ASSERT_TRUE(plan.has_value());
    run_options serial;
    serial.threads = 1;
    serial.fault = &*plan;
    const report a = run_sweep(bench_sweep(), serial);

    ASSERT_EQ(a.results.size(), k_jobs);
    for (std::size_t i = 0; i < k_jobs; ++i) {
        if (i == 2) {
            EXPECT_EQ(a.results[i].status, hier::run_status::failed);
            EXPECT_NE(a.results[i].error.find("injected fault: job 2"),
                      std::string::npos);
            // The failure row still names its coordinates for the report.
            EXPECT_EQ(a.results[i].config_name, a.jobs[i].config.name);
            EXPECT_EQ(a.results[i].workload_name, a.jobs[i].workload.name);
            EXPECT_EQ(a.results[i].instructions, 0u);
        } else {
            EXPECT_EQ(a.results[i].status, hier::run_status::ok);
            EXPECT_TRUE(a.results[i].error.empty());
            EXPECT_GT(a.results[i].instructions, 0u);
        }
    }
    EXPECT_EQ(count_failures(a), 1u);

    // Failure rows obey the determinism contract too: serial and parallel
    // sweeps agree on every field, including the failed slot.
    run_options par = serial;
    par.threads = 8;
    const report b = run_sweep(bench_sweep(), par);
    for (std::size_t i = 0; i < k_jobs; ++i)
        expect_sim_fields_identical(a.results[i], b.results[i]);
}

TEST(fault_isolation, retry_success_is_bit_identical_to_clean_run)
{
    run_options clean_opt;
    clean_opt.threads = 1;
    const report clean = run_sweep(bench_sweep(), clean_opt);

    // The fault hits attempt 0 only; --retries 1 re-runs job 2 from the
    // same rng::split seed, so the retried row must be bit-identical to
    // the clean run's.
    const auto plan = fault_plan::parse("throw:2:1");
    ASSERT_TRUE(plan.has_value());
    run_options opt;
    opt.threads = 1;
    opt.fault = &*plan;
    opt.job_retries = 1;
    const report retried = run_sweep(bench_sweep(), opt);

    ASSERT_EQ(retried.results.size(), k_jobs);
    for (std::size_t i = 0; i < k_jobs; ++i) {
        EXPECT_EQ(retried.results[i].status, hier::run_status::ok);
        expect_sim_fields_identical(clean.results[i], retried.results[i]);
    }
}

// --------------------------------------------------------------------------
// Resume scan semantics (no process killing yet).
// --------------------------------------------------------------------------

TEST(resume_scan, failed_rows_rerun_and_ok_rows_are_reused)
{
    const std::string path =
        ::testing::TempDir() + "resume_scan_failed_rows.jsonl";
    const sweep s = bench_sweep();
    const std::vector<job> jobs = s.build();
    {
        std::ofstream out(path, std::ios::trunc);
        for (const job& j : jobs) {
            hier::run_result r;
            r.config_name = j.config.name;
            r.workload_name = j.workload.name;
            if (j.key.flat == 2) {
                r.status = hier::run_status::failed;
                r.error = "boom";
            }
            out << encode_json_line(j, r) << "\n";
        }
    }
    app_options opt;
    opt.json_path = path;
    resume_scan scan;
    ASSERT_TRUE(scan_resume_file(opt, s, scan));
    EXPECT_EQ(scan.rows, k_jobs);
    EXPECT_EQ(scan.rerun_failed, 1u);
    EXPECT_FALSE(scan.truncated_tail);
    EXPECT_EQ(scan.completed.size(), k_jobs - 1);
    EXPECT_EQ(scan.completed.count(2), 0u); // failed: must re-run
}

// --------------------------------------------------------------------------
// Kill-and-resume: a hard-killed shard converges after --resume.
// (fork()-based — keep these before any detached-thread test.)
// --------------------------------------------------------------------------

class kill_and_resume : public ::testing::TestWithParam<int> {};

TEST_P(kill_and_resume, crashed_sweep_resumes_to_clean_content)
{
    const std::string threads = std::to_string(GetParam());
    const std::string dir = ::testing::TempDir();
    const std::string clean_path =
        dir + "clean_t" + threads + ".jsonl";
    const std::string crash_path =
        dir + "crash_t" + threads + ".jsonl";
    std::remove(clean_path.c_str());
    std::remove(crash_path.c_str());

    ASSERT_EQ(launch({"--threads", threads, "--json", clean_path}), exit_ok);
    const auto clean_rows = read_rows(clean_path);
    ASSERT_EQ(clean_rows.size(), k_jobs);

    // Hard-kill the sweep at job 3 in a child process. --durable 1 makes
    // every already-emitted row durable before the _Exit(137).
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        launch({"--threads", threads, "--json", crash_path, "--durable", "1",
                "--fault", "exit:3"});
        std::_Exit(42); // not reached: the fault exits with 137
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 137);

    // The crash left a strict prefix: job 3 never finished, so the
    // in-order cursor can have emitted at most rows 0..2. (Count newlines
    // rather than decoding — a torn trailing line is legitimate here.)
    const std::string partial = read_file(crash_path);
    std::size_t partial_lines = 0;
    for (const char c : partial)
        partial_lines += c == '\n';
    EXPECT_LE(partial_lines, 3u);

    ASSERT_EQ(launch({"--threads", threads, "--json", crash_path,
                      "--resume"}),
              exit_ok);
    expect_rows_match(read_rows(crash_path), clean_rows);

    // Resuming a complete file is a no-op: every job is skipped_resumed
    // and the bytes do not change at all.
    const std::string before = read_file(crash_path);
    ASSERT_EQ(launch({"--threads", threads, "--json", crash_path,
                      "--resume"}),
              exit_ok);
    EXPECT_EQ(read_file(crash_path), before);
}

INSTANTIATE_TEST_SUITE_P(threads, kill_and_resume, ::testing::Values(1, 8));

TEST(kill_and_resume_edge, torn_trailing_line_is_truncated_and_rerun)
{
    const std::string dir = ::testing::TempDir();
    const std::string clean_path = dir + "torn_clean.jsonl";
    const std::string torn_path = dir + "torn.jsonl";
    std::remove(clean_path.c_str());

    ASSERT_EQ(launch({"--threads", "1", "--json", clean_path}), exit_ok);
    const std::string clean = read_file(clean_path);

    // Tear the file mid-way through its final line, as a kill during the
    // final write(2) would.
    const std::size_t last_line =
        clean.rfind('\n', clean.size() - 2) + 1;
    const std::size_t cut = last_line + (clean.size() - 1 - last_line) / 2;
    {
        std::ofstream out(torn_path, std::ios::trunc | std::ios::binary);
        out << clean.substr(0, cut);
    }

    ASSERT_EQ(launch({"--threads", "1", "--json", torn_path, "--resume"}),
              exit_ok);
    expect_rows_match(read_rows(torn_path), read_rows(clean_path));
}

TEST(kill_and_resume_edge, corrupt_mid_file_refuses_to_resume)
{
    const std::string dir = ::testing::TempDir();
    const std::string clean_path = dir + "corrupt_clean.jsonl";
    const std::string bad_path = dir + "corrupt.jsonl";
    std::remove(clean_path.c_str());

    ASSERT_EQ(launch({"--threads", "1", "--json", clean_path}), exit_ok);
    std::string content = read_file(clean_path);
    // Mangle the *second* line: a malformed row that is not the trailing
    // line means corruption, not a torn tail.
    const std::size_t first_nl = content.find('\n');
    content.replace(first_nl + 1, 10, "<garbage!>");
    {
        std::ofstream out(bad_path, std::ios::trunc | std::ios::binary);
        out << content;
    }
    EXPECT_EQ(launch({"--threads", "1", "--json", bad_path, "--resume"}),
              exit_cli_error);
}

TEST(kill_and_resume_edge, mismatched_sweep_refuses_to_resume)
{
    const std::string path = ::testing::TempDir() + "mismatch.jsonl";
    std::remove(path.c_str());
    ASSERT_EQ(launch({"--threads", "1", "--json", path}), exit_ok);

    // Same file, different base seed: every derived seed differs, so the
    // file belongs to a different experiment. Resume must refuse rather
    // than silently mix the two.
    std::vector<std::string> args = {"exp_fault_test", "--instructions",
                                     "2000",           "--warmup",
                                     "300",            "--seed",
                                     "18",             "--quiet",
                                     "--threads",      "1",
                                     "--json",         path,
                                     "--resume"};
    std::vector<const char*> argv;
    for (const auto& a : args)
        argv.push_back(a.c_str());
    EXPECT_EQ(run_app(int(argv.size()), argv.data(), bench_configs(),
                      bench_workloads(), nullptr),
              exit_cli_error);
}

TEST(kill_and_resume_edge, resume_without_a_json_file_is_a_cli_error)
{
    EXPECT_EQ(launch({"--threads", "1", "--resume"}), exit_cli_error);
}

TEST(exit_codes, job_failure_exits_1_and_cli_error_exits_2)
{
    const std::string path = ::testing::TempDir() + "exit_codes.jsonl";
    std::remove(path.c_str());
    EXPECT_EQ(launch({"--threads", "1", "--json", path, "--fault",
                      "throw:0:99"}),
              exit_job_failure);
    EXPECT_EQ(launch({"--threads", "1", "--shard", "banana"}),
              exit_cli_error);

    // The failed row is on disk; --resume re-runs exactly that job and
    // the sweep then converges to a fully-ok file.
    ASSERT_EQ(launch({"--threads", "1", "--json", path, "--resume"}),
              exit_ok);
    const auto rows = read_rows(path);
    // File history: 6 rows from the failed run + 1 corrected row for job 0.
    ASSERT_EQ(rows.size(), k_jobs + 1);
    EXPECT_EQ(rows.front().result.status, hier::run_status::failed);
    EXPECT_EQ(rows.back().coords.flat, 0u);
    EXPECT_EQ(rows.back().result.status, hier::run_status::ok);
}

// --------------------------------------------------------------------------
// Timeouts and bounded pool shutdown (these abandon detached threads:
// keep them AFTER every fork()-based test above).
// --------------------------------------------------------------------------

TEST(timeouts, stalled_job_times_out_and_others_complete)
{
    const auto plan = fault_plan::parse("stall:2:5");
    ASSERT_TRUE(plan.has_value());
    run_options opt;
    opt.threads = 1;
    opt.fault = &*plan;
    opt.job_timeout_seconds = 0.2;
    const report rep = run_sweep(bench_sweep(), opt);

    ASSERT_EQ(rep.results.size(), k_jobs);
    for (std::size_t i = 0; i < k_jobs; ++i) {
        if (i == 2) {
            EXPECT_EQ(rep.results[i].status, hier::run_status::timed_out);
            EXPECT_NE(rep.results[i].error.find("soft timeout"),
                      std::string::npos);
        } else {
            EXPECT_EQ(rep.results[i].status, hier::run_status::ok);
        }
    }
    EXPECT_EQ(count_failures(rep), 1u);
}

TEST(pool_shutdown, bounded_shutdown_abandons_a_stuck_worker)
{
    pool p(2);
    std::atomic<bool> fast_done{false};
    p.submit([] {
        std::this_thread::sleep_for(std::chrono::seconds(5)); // "stuck"
    });
    p.submit([&] { fast_done = true; });

    // Give both workers time to pick their tasks up.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::size_t abandoned = p.shutdown(0.2);
    EXPECT_EQ(abandoned, 1u);
    EXPECT_TRUE(fast_done);
    // Idempotent: a second shutdown (and the destructor) are no-ops.
    EXPECT_EQ(p.shutdown(0.2), 0u);
}

} // namespace
} // namespace lnuca::exp
