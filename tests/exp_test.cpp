// Experiment-runner subsystem: determinism of the work-stealing pool,
// shard partition/union correctness, seed-lane derivation, and the
// JSON-lines sink round-trip.
#include "src/common/json.h"
#include "src/exp/pool.h"
#include "src/exp/run_app.h"
#include "src/exp/runner.h"
#include "src/exp/sink.h"
#include "src/exp/sweep.h"
#include "src/hier/presets.h"
#include "src/workloads/spec2006.h"
#include "tests/run_result_compare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>

namespace lnuca::exp {
namespace {

// Bitwise equality of two run_results: the determinism contract says the
// thread count and shard layout must not change a single field. The host
// wall-clock/throughput fields are deliberately absent from the shared
// comparator: they measure the host, not the simulation (the jsonl
// round-trip test covers their serialisation instead).
void expect_identical(const hier::run_result& a, const hier::run_result& b)
{
    expect_sim_fields_identical(a, b);
}

sweep small_sweep()
{
    sweep s;
    s.add_config(hier::presets::l2_256kb())
        .add_config(hier::presets::lnuca_l3(2))
        .add_config(hier::presets::lnuca_l3(3))
        .add_workload(*wl::find_spec2006("456.hmmer"))
        .add_workload(*wl::find_spec2006("401.bzip2"))
        .add_workload(*wl::find_spec2006("429.mcf"))
        .add_workload(*wl::find_spec2006("470.lbm"))
        .instructions(3000)
        .warmup(500)
        .base_seed(17);
    return s;
}

// --------------------------------------------------------------------------
// Pool basics.
// --------------------------------------------------------------------------

TEST(pool, parallel_for_covers_every_index_once)
{
    pool p(4);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits)
        h = 0;
    p.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(pool, submit_from_inside_a_task)
{
    pool p(2);
    std::atomic<int> ran{0};
    p.submit([&] {
        ++ran;
        p.submit([&] { ++ran; });
    });
    p.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(pool, thread_count_defaults_to_hardware)
{
    pool p;
    EXPECT_GE(p.thread_count(), 1u);
}

// --------------------------------------------------------------------------
// Seed lanes.
// --------------------------------------------------------------------------

TEST(seeding, split_lanes_are_distinct_across_a_grid)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t base = 1; base <= 4; ++base)
        for (std::uint64_t a = 0; a < 4; ++a)
            for (std::uint64_t b = 0; b < 4; ++b)
                for (std::uint64_t c = 0; c < 4; ++c)
                    seen.insert(rng::split(base, a, b, c));
    EXPECT_EQ(seen.size(), 4u * 4u * 4u * 4u);
}

TEST(seeding, split_coordinates_do_not_alias_positions)
{
    EXPECT_NE(rng::split(1, 1, 0), rng::split(1, 0, 1));
    EXPECT_NE(rng::split(1, 1, 0, 0), rng::split(1, 0, 0, 1));
    // The additive scheme's guaranteed collision must not exist here.
    EXPECT_NE(rng::split(5, 1, 0, 0), rng::split(6, 0, 0, 0));
}

TEST(seeding, sweep_jobs_use_split_lanes)
{
    const auto jobs = small_sweep().build();
    ASSERT_EQ(jobs.size(), 12u);
    std::set<std::uint64_t> seeds;
    for (const auto& j : jobs) {
        EXPECT_EQ(j.seed,
                  rng::split(17, j.key.config, j.key.workload, j.key.replicate));
        seeds.insert(j.seed);
    }
    EXPECT_EQ(seeds.size(), jobs.size()) << "job seed collision";
}

// --------------------------------------------------------------------------
// Determinism: a multi-threaded sweep is bit-identical to the serial path.
// --------------------------------------------------------------------------

TEST(runner, parallel_sweep_bit_identical_to_serial)
{
    const sweep s = small_sweep();
    const report serial = run_sweep(s, {1});
    const report parallel = run_sweep(s, {8});
    ASSERT_EQ(serial.jobs.size(), 12u);
    ASSERT_EQ(parallel.jobs.size(), 12u);
    // Harness health: a non-fault sweep never leaks a stuck worker.
    EXPECT_EQ(serial.abandoned_workers, 0u);
    EXPECT_EQ(parallel.abandoned_workers, 0u);
    for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
        EXPECT_TRUE(serial.jobs[i].key == parallel.jobs[i].key);
        expect_identical(serial.results[i], parallel.results[i]);
    }
}

// --------------------------------------------------------------------------
// Shard filters: partition, union, and per-shard determinism.
// --------------------------------------------------------------------------

TEST(sharding, shards_partition_the_sweep)
{
    sweep s = small_sweep();
    const std::size_t total = s.total_jobs();
    const std::size_t shards = 3;

    std::set<std::size_t> seen;
    std::size_t count = 0;
    for (std::size_t i = 0; i < shards; ++i) {
        s.shard(i, shards);
        for (const auto& j : s.build()) {
            EXPECT_EQ(j.key.flat % shards, i);
            EXPECT_TRUE(seen.insert(j.key.flat).second)
                << "job " << j.key.flat << " appears in two shards";
            ++count;
        }
    }
    EXPECT_EQ(count, total);
    EXPECT_EQ(seen.size(), total);
    EXPECT_EQ(*seen.rbegin(), total - 1);
}

TEST(sharding, sharded_results_match_the_full_run)
{
    sweep full;
    full.add_config(hier::presets::l2_256kb())
        .add_config(hier::presets::lnuca_l3(2))
        .add_workload(*wl::find_spec2006("456.hmmer"))
        .add_workload(*wl::find_spec2006("401.bzip2"))
        .instructions(2500)
        .warmup(400)
        .base_seed(5);
    const report whole = run_sweep(full, {2});

    std::size_t matched = 0;
    for (std::size_t i = 0; i < 2; ++i) {
        sweep part = full;
        part.shard(i, 2);
        const report rep = run_sweep(part, {2});
        for (std::size_t k = 0; k < rep.jobs.size(); ++k) {
            const job_key& key = rep.jobs[k].key;
            const hier::run_result* full_result =
                whole.find(key.config, key.workload, key.replicate);
            ASSERT_NE(full_result, nullptr);
            expect_identical(rep.results[k], *full_result);
            ++matched;
        }
    }
    EXPECT_EQ(matched, full.total_jobs());
}

// --------------------------------------------------------------------------
// Sinks.
// --------------------------------------------------------------------------

// Every row field holds a distinct non-default value, so a field the
// decoder drops changes the re-encoded bytes (jsonl.round_trip_is_exact).
hier::run_result synthetic_result()
{
    hier::run_result r;
    r.config_name = "LN3, \"quoted\", with, commas";
    r.workload_name = "429.mcf";
    r.floating_point = true;
    r.status = hier::run_status::failed;
    r.error = "injected fault, \"quoted\"\r\x01 tail";
    r.instructions = 123456789;
    r.cycles = 987654321;
    r.ipc = 0.12499999999999997; // needs all 17 significant digits
    r.l2_read_hits = 42;
    r.fabric_read_hits = {0, 0, 777, 31};
    r.transport_actual = 1003;
    r.transport_min = 991;
    r.search_restarts = 3;
    r.searches = 1000;
    r.energy.dynamic_j = 1.2345678901234567e-3;
    r.energy.static_l1_j = 9.87e-5;
    r.energy.static_storage_j = 3.3e-4;
    r.energy.static_l3_j = 7.1e-2;
    r.loads_l1 = 11;
    r.loads_fabric = 22;
    r.loads_l2 = 33;
    r.loads_l3 = 44;
    r.loads_dnuca = 55;
    r.loads_memory = 66;
    r.loads_peer = 77;
    r.avg_load_latency = 7.0999999999999996;
    r.cores = 3;
    r.per_core_ipc = {0.30000000000000004, 1.0 / 3.0, 2.5e-7};
    r.weighted_speedup = 2.7182818284590451;
    r.sampled = true;
    r.sampled_windows = 12;
    r.measured_instructions = 24000;
    r.ipc_ci95 = 0.0031999999999999997;
    r.host_seconds = 0.12345678901234567;
    r.sim_cycles_per_second = 8.0012345678901234e9;
    r.sim_instructions_per_second = 1.0000000000000002e9;
    return r;
}

job synthetic_job()
{
    job j;
    j.key = {2, 7, 1, 71};
    j.instructions = 50000;
    j.warmup = 8000;
    j.seed = rng::split(99, 2, 7, 1);
    j.manifest_hash = 0x00c0ffee5eed1234ULL;
    return j;
}

bool same_json(const json::value& a, const json::value& b)
{
    if (a.k != b.k || a.boolean != b.boolean || a.text != b.text ||
        a.items.size() != b.items.size() ||
        a.members.size() != b.members.size())
        return false;
    for (std::size_t i = 0; i < a.items.size(); ++i)
        if (!same_json(a.items[i], b.items[i]))
            return false;
    for (std::size_t i = 0; i < a.members.size(); ++i)
        if (a.members[i].first != b.members[i].first ||
            !same_json(a.members[i].second, b.members[i].second))
            return false;
    return true;
}

const json::value* member(const json::value& object, const std::string& key)
{
    for (const auto& [k, v] : object.members)
        if (k == key)
            return &v;
    return nullptr;
}

TEST(jsonl, round_trip_is_exact)
{
    const job j = synthetic_job();
    const hier::run_result r = synthetic_result();
    const std::string line = encode_json_line(j, r);

    // The fixture covers the whole table: every key is written, and none
    // (nor any energy entry) carries its default value.
    json::value full, defaults;
    ASSERT_TRUE(json::parse(line, full));
    ASSERT_TRUE(json::parse(encode_json_line(job{}, hier::run_result{}),
                            defaults));
    EXPECT_EQ(full.members.size(), std::size(hier::row_fields));
    for (const auto& [key, v] : full.members) {
        const json::value* d = member(defaults, key);
        if (d == nullptr)
            continue; // written only for this fixture (error, manifest)
        if (v.k == json::value::kind::object) {
            for (const auto& [sub, sv] : v.members)
                EXPECT_FALSE(same_json(sv, *member(*d, sub)))
                    << key << "." << sub << " is at its default";
        } else {
            EXPECT_FALSE(same_json(v, *d)) << key << " is at its default";
        }
    }

    const auto decoded = decode_json_line(line);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->coords == j.coords());
    expect_identical(decoded->result, r);
    EXPECT_EQ(decoded->result.error, r.error);
    EXPECT_EQ(decoded->result.host_seconds, r.host_seconds);
    EXPECT_EQ(decoded->result.sim_cycles_per_second, r.sim_cycles_per_second);
    EXPECT_EQ(decoded->result.sim_instructions_per_second,
              r.sim_instructions_per_second);

    // Encoding the decoded run reproduces the exact bytes.
    EXPECT_EQ(encode_json_line(j, decoded->result), line);
}

TEST(jsonl, sink_emits_one_line_per_run_and_rejects_garbage)
{
    std::ostringstream out;
    jsonl_sink sink(out);
    sink.consume(synthetic_job(), synthetic_result());
    sink.consume(synthetic_job(), synthetic_result());
    sink.finish(); // rows are batched; finish() flushes the tail
    std::istringstream in(out.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_TRUE(decode_json_line(line).has_value());
        ++lines;
    }
    EXPECT_EQ(lines, 2u);

    EXPECT_FALSE(decode_json_line("").has_value());
    EXPECT_FALSE(decode_json_line("not json").has_value());
    EXPECT_FALSE(decode_json_line("{\"config\":").has_value());
    EXPECT_FALSE(decode_json_line("{\"cycles\":\"text\"}").has_value());
    // Unknown key whose skipped value is truncated mid-escape: must fail
    // cleanly, not scan past the end of the buffer.
    EXPECT_FALSE(decode_json_line("{\"x\":[\"\\").has_value());
    EXPECT_FALSE(decode_json_line("{\"x\":{\"y\":\"\\").has_value());
    // Out-of-range, signed or non-integer numbers are errors, never a
    // truncated, wrapped or saturated value.
    EXPECT_FALSE(decode_json_line("{\"cores\":4294967297}").has_value());
    EXPECT_FALSE(decode_json_line("{\"instructions\":-1}").has_value());
    EXPECT_FALSE(decode_json_line("{\"instructions\":+5}").has_value());
    EXPECT_FALSE(decode_json_line("{\"instructions\":5.0}").has_value());
    EXPECT_FALSE(
        decode_json_line("{\"flat\":99999999999999999999999}").has_value());
    EXPECT_FALSE(decode_json_line("{\"ipc\":nan}").has_value());
    EXPECT_FALSE(decode_json_line("{\"ipc\":1e999}").has_value());
    EXPECT_FALSE(decode_json_line("{\"manifest\":\"-1\"}").has_value());
    EXPECT_FALSE(
        decode_json_line("{\"energy\":{\"total_j\":\"x\"}}").has_value());
    // A \u escape needs exactly four hex digits.
    EXPECT_FALSE(decode_json_line("{\"config\":\"a\\u00zzb\"}").has_value());
    EXPECT_FALSE(decode_json_line("{\"config\":\"a\\u00\"}").has_value());
    // Nothing may follow the object.
    EXPECT_FALSE(decode_json_line("{\"cycles\":1} x").has_value());
    EXPECT_FALSE(decode_json_line("{\"cycles\":1}}").has_value());

    // The largest core count fits; the standard escapes all decode.
    const auto cores = decode_json_line("{\"cores\":4294967295}");
    ASSERT_TRUE(cores.has_value());
    EXPECT_EQ(cores->result.cores, 4294967295u);
    const auto escaped = decode_json_line(
        "{\"config\":\"a\\/b\\rc\\bd\\fe\\u0041\\u00e9\"}");
    ASSERT_TRUE(escaped.has_value());
    EXPECT_EQ(escaped->result.config_name, "a/b\rc\bd\feA\xc3\xa9");
}

TEST(jsonl, truncated_lines_decode_to_nullopt_never_partial_structs)
{
    // A kill mid-write can tear a line anywhere. Cut a real encoded line
    // at every byte: each prefix must decode to nullopt (never UB, never a
    // partially-filled struct presented as valid).
    const std::string line = encode_json_line(synthetic_job(),
                                              synthetic_result());
    for (std::size_t cut = 0; cut < line.size(); ++cut)
        EXPECT_FALSE(decode_json_line(line.substr(0, cut)).has_value())
            << "prefix of " << cut << " bytes decoded";

    // The named torn shapes from the resume contract, explicitly: cut
    // mid-string, cut mid-number, missing closing brace.
    const std::size_t mid_string = line.find("429.m") + 3;
    EXPECT_FALSE(decode_json_line(line.substr(0, mid_string)).has_value());
    const std::size_t mid_number = line.find("987654321") + 4;
    EXPECT_FALSE(decode_json_line(line.substr(0, mid_number)).has_value());
    EXPECT_FALSE(
        decode_json_line(line.substr(0, line.size() - 1)).has_value());
}

TEST(jsonl, status_and_error_round_trip)
{
    const job j = synthetic_job();
    hier::run_result r = synthetic_result();
    r.status = hier::run_status::failed;
    r.error = "injected fault: job 71 attempt 0, with \"quotes\"\\slashes";

    const std::string line = encode_json_line(j, r);
    const auto decoded = decode_json_line(line);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->result.status, hier::run_status::failed);
    EXPECT_EQ(decoded->result.error, r.error);
    EXPECT_EQ(encode_json_line(j, decoded->result), line);

    // Lines from pre-status writers decode with status == ok ...
    hier::run_result ok_result = synthetic_result();
    ok_result.status = hier::run_status::ok;
    ok_result.error.clear();
    std::string old_line = encode_json_line(j, ok_result);
    const std::string status_field = ",\"status\":\"ok\"";
    const std::size_t at = old_line.find(status_field);
    ASSERT_NE(at, std::string::npos);
    old_line.erase(at, status_field.size());
    const auto old_decoded = decode_json_line(old_line);
    ASSERT_TRUE(old_decoded.has_value());
    EXPECT_EQ(old_decoded->result.status, hier::run_status::ok);

    // ... but an unknown status string is a malformed row, not ok.
    std::string mangled = encode_json_line(j, r);
    const std::size_t st = mangled.find("\"status\":\"failed\"");
    ASSERT_NE(st, std::string::npos);
    mangled.replace(st, 17, "\"status\":\"maybe?\"");
    EXPECT_FALSE(decode_json_line(mangled).has_value());
}

TEST(jsonl, batches_rows_and_flushes_on_threshold_finish_and_destruction)
{
    const job j = synthetic_job();
    const hier::run_result r = synthetic_result();
    const std::string line = encode_json_line(j, r) + "\n";

    // Below the threshold nothing reaches the stream until finish().
    std::ostringstream out;
    jsonl_sink sink(out, /*flush_rows=*/3);
    sink.begin(5);
    sink.consume(j, r);
    sink.consume(j, r);
    EXPECT_TRUE(out.str().empty());
    // The third row completes a batch: exactly one write of three rows.
    sink.consume(j, r);
    EXPECT_EQ(out.str(), line + line + line);
    sink.consume(j, r);
    EXPECT_EQ(out.str(), line + line + line);
    sink.finish();
    EXPECT_EQ(out.str(), line + line + line + line);

    // An abandoned sink (no finish(), e.g. early exit) flushes on
    // destruction so the JSON-lines file never silently loses rows.
    std::ostringstream leftover;
    {
        jsonl_sink abandoned(leftover, 100);
        abandoned.consume(j, r);
    }
    EXPECT_EQ(leftover.str(), line);
}

// Split one CSV line into its fields, honouring quotes.
std::vector<std::string> csv_fields(const std::string& line)
{
    std::vector<std::string> fields(1);
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
            fields.back() += '"';
            ++i;
        } else if (c == '"') {
            quoted = !quoted;
        } else if (c == ',' && !quoted) {
            fields.emplace_back();
        } else {
            fields.back() += c;
        }
    }
    return fields;
}

TEST(csv, header_plus_one_row_per_run)
{
    std::ostringstream out;
    csv_sink sink(out);
    sink.begin(1);
    sink.consume(synthetic_job(), synthetic_result());
    std::istringstream in(out.str());
    std::string header, row, extra;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_FALSE(std::getline(in, extra));
    EXPECT_EQ(header.substr(0, 15), "config,workload");
    // The comma-laden config name survives CSV quoting.
    EXPECT_NE(row.find("\"LN3, \"\"quoted\"\", with, commas\""),
              std::string::npos);

    const std::vector<std::string> columns = csv_fields(header);
    const std::vector<std::string> values = csv_fields(row);
    EXPECT_EQ(columns.size(), values.size());
    EXPECT_EQ(values[0], synthetic_result().config_name);

    // Every JSONL leaf has its column; a nested object's leaves are
    // <object>_<key>.
    json::value line;
    ASSERT_TRUE(json::parse(encode_json_line(synthetic_job(),
                                             synthetic_result()),
                            line));
    std::vector<std::string> leaves;
    for (const auto& [key, v] : line.members) {
        if (v.k != json::value::kind::object)
            leaves.push_back(key);
        for (const auto& sub : v.members)
            leaves.push_back(key + "_" + sub.first);
    }
    for (const std::string& leaf : leaves)
        EXPECT_NE(std::find(columns.begin(), columns.end(), leaf),
                  columns.end())
            << "no CSV column for " << leaf;
    EXPECT_EQ(columns.size(), leaves.size());
    // Arrays pack into one ';'-joined field (Table III's hit distribution).
    const auto at = [&](const char* name) {
        return values[std::size_t(
            std::find(columns.begin(), columns.end(), name) -
            columns.begin())];
    };
    EXPECT_EQ(at("fabric_read_hits"), "0;0;777;31");
    EXPECT_EQ(at("manifest"), "00c0ffee5eed1234");
}

TEST(runner, sinks_see_jobs_in_flat_order_regardless_of_threads)
{
    struct order_probe final : sink {
        std::vector<std::size_t> flats;
        void consume(const job& j, const hier::run_result&) override
        {
            flats.push_back(j.key.flat);
        }
    };

    sweep s;
    s.add_config(hier::presets::l2_256kb())
        .add_workload(*wl::find_spec2006("456.hmmer"))
        .add_workload(*wl::find_spec2006("401.bzip2"))
        .add_workload(*wl::find_spec2006("429.mcf"))
        .instructions(1500)
        .warmup(300);

    order_probe probe;
    run_sweep(s, {4}, {&probe});
    ASSERT_EQ(probe.flats.size(), 3u);
    EXPECT_TRUE(std::is_sorted(probe.flats.begin(), probe.flats.end()));
}

// --------------------------------------------------------------------------
// App-level option parsing.
// --------------------------------------------------------------------------

TEST(run_app_options, parses_the_shared_flags)
{
    const char* argv[] = {"bench",           "--instructions", "7000",
                          "--warmup",        "900",            "--seed",
                          "3",               "--threads",      "8",
                          "--shard",         "2/5",            "--json",
                          "out.jsonl",       "--replicates",   "4",
                          "--engine",        "paranoid",       "--quiet"};
    const cli_args args(int(sizeof argv / sizeof *argv), argv);
    const app_options opt = parse_app_options(args);
    EXPECT_EQ(opt.instructions, 7000u);
    EXPECT_EQ(opt.warmup, 900u);
    EXPECT_EQ(opt.seed, 3u);
    EXPECT_EQ(opt.threads, 8u);
    EXPECT_EQ(opt.shard_index, 2u);
    EXPECT_EQ(opt.shard_count, 5u);
    EXPECT_EQ(opt.json_path, "out.jsonl");
    EXPECT_EQ(opt.replicates, 4u);
    EXPECT_EQ(opt.engine_mode, sim::schedule_mode::paranoid);
    EXPECT_TRUE(opt.quiet);
}

TEST(run_app_options, engine_defaults_to_idle_skip)
{
    const char* argv[] = {"bench"};
    const app_options opt = parse_app_options(cli_args(1, argv));
    EXPECT_EQ(opt.engine_mode, sim::schedule_mode::idle_skip);

    const char* dense_argv[] = {"bench", "--engine", "dense"};
    EXPECT_EQ(parse_app_options(cli_args(3, dense_argv)).engine_mode,
              sim::schedule_mode::dense);
}

TEST(run_app_options, bad_shard_is_a_cli_error_not_a_full_sweep)
{
    // A mistyped shard must never silently run the full sweep (a fleet
    // would then run N copies of every job). It is a hard CLI error.
    for (const char* bad : {"5/5", "2", "a/4", "0x1/4", "/4", "3/", "-1/4"}) {
        const char* argv[] = {"bench", "--shard", bad};
        const app_options opt = parse_app_options(cli_args(3, argv));
        EXPECT_TRUE(opt.cli_error) << "--shard " << bad;
        EXPECT_NE(opt.cli_error_text.find("--shard"), std::string::npos);
    }
    const char* good[] = {"bench", "--shard", "4/5"};
    EXPECT_FALSE(parse_app_options(cli_args(3, good)).cli_error);
}

TEST(run_app_options, bad_engine_sampling_or_workload_is_a_cli_error)
{
    // A misspelled value must not silently run a different experiment
    // (idle-skip instead of paranoid, exact instead of sampled, the default
    // workload set instead of the named one). Each is a hard CLI error
    // whose message names the flag.
    const char* cases[][3] = {
        {"bench", "--engine", "densee"},
        {"bench", "--sampling", "periodic:2000"},
        {"bench", "--sampling", "on"},
        {"bench", "--workload", "429.mfc"},
        {"bench", "--workload", "429.mcf,scenario:bogus"},
    };
    for (const auto& argv : cases) {
        const app_options opt = parse_app_options(cli_args(3, argv));
        EXPECT_TRUE(opt.cli_error) << argv[1] << " " << argv[2];
        EXPECT_NE(opt.cli_error_text.find(argv[1]), std::string::npos)
            << opt.cli_error_text;
    }
    const char* good[][3] = {
        {"bench", "--engine", "paranoid"},
        {"bench", "--sampling", "periodic:2000:40000"},
        {"bench", "--sampling", "off"},
        {"bench", "--workload", "429.mcf,scenario:ping_pong"},
    };
    for (const auto& argv : good)
        EXPECT_FALSE(parse_app_options(cli_args(3, argv)).cli_error)
            << argv[1] << " " << argv[2];
}

TEST(run_app_options, parses_fault_tolerance_flags)
{
    const char* argv[] = {"bench",     "--timeout", "2.5",  "--retries",
                          "3",         "--resume",  "--durable", "16",
                          "--fault",   "throw:7:2"};
    const cli_args args(int(sizeof argv / sizeof *argv), argv);
    const app_options opt = parse_app_options(args);
    ASSERT_FALSE(opt.cli_error) << opt.cli_error_text;
    EXPECT_EQ(opt.timeout_seconds, 2.5);
    EXPECT_EQ(opt.retries, 3u);
    EXPECT_TRUE(opt.resume);
    EXPECT_EQ(opt.durable_rows, 16u);
    ASSERT_TRUE(opt.fault.has_value());
    EXPECT_EQ(opt.fault->action, fault_plan::kind::throw_error);
    EXPECT_EQ(opt.fault->flat, 7u);
    EXPECT_EQ(opt.fault->attempts, 2u);

    const char* bad[] = {"bench", "--fault", "explode:1"};
    EXPECT_TRUE(parse_app_options(cli_args(3, bad)).cli_error);
}

} // namespace
} // namespace lnuca::exp
