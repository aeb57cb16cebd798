// Quickstart: build the paper's LN3-144KB hierarchy, run a SPEC proxy
// workload through it via the experiment runner, and print the headline
// statistics.
//
//   ./examples/quickstart [--workload 429.mcf] [--config LN3]
//                         [--instructions N] [--warmup N] [--threads N]
//                         [--json out.jsonl]
//
// --workload takes any spec the benches accept (a SPEC proxy name,
// trace:<file>, scenario:<name>, or a comma-separated list of them); pass
// --workload all to sweep the whole SPEC proxy suite (one job per
// workload, scheduled across the pool).
#include "src/lnuca.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace lnuca;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    const std::string workload_name = args.get_string("workload", "429.mcf");
    const std::string config_name = args.get_string("config", "LN3");

    std::vector<wl::workload_profile> workloads;
    if (workload_name == "all") {
        workloads = wl::spec2006_suite();
    } else {
        std::string bad;
        workloads = trace::parse_workload_list(workload_name, &bad);
        if (workloads.empty()) {
            std::fprintf(stderr,
                         "unknown workload '%s' (a SPEC proxy name, "
                         "trace:<file>, scenario:<name>, or 'all')\n",
                         bad.c_str());
            return 1;
        }
    }

    hier::system_config config;
    if (config_name == "L2")
        config = hier::presets::l2_256kb();
    else if (config_name == "LN2")
        config = hier::presets::lnuca_l3(2);
    else if (config_name == "LN3")
        config = hier::presets::lnuca_l3(3);
    else if (config_name == "LN4")
        config = hier::presets::lnuca_l3(4);
    else if (config_name == "DN")
        config = hier::presets::dnuca_4x8();
    else if (config_name == "LN2+DN")
        config = hier::presets::lnuca_dnuca(2);
    else {
        std::fprintf(stderr, "unknown config '%s' (L2|LN2|LN3|LN4|DN|LN2+DN)\n",
                     config_name.c_str());
        return 1;
    }

    // `all` is this example's own keyword, not a workload spec: keep it
    // away from run_app, whose --workload parser rejects unknown specs.
    std::vector<const char*> app_argv;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload=all")
            continue;
        if (arg == "--workload" && i + 1 < argc &&
            std::string(argv[i + 1]) == "all") {
            ++i;
            continue;
        }
        app_argv.push_back(argv[i]);
    }

    return exp::run_app(
        int(app_argv.size()), app_argv.data(), {config}, std::move(workloads),
        [](const exp::report& rep, const exp::app_options& opt) {
            std::printf("L-NUCA quickstart: %zu run(s) on %s, %llu "
                        "instructions (+%llu warmup)\n\n",
                        rep.jobs.size(),
                        rep.results.front().config_name.c_str(),
                        static_cast<unsigned long long>(opt.instructions),
                        static_cast<unsigned long long>(opt.warmup));

            if (rep.workload_count == 1) {
                const hier::run_result& r = rep.results.front();
                text_table t("Run summary: " + r.workload_name);
                t.set_header({"metric", "value"});
                t.add_row({"IPC", text_table::num(r.ipc, 3)});
                t.add_row({"cycles", std::to_string(r.cycles)});
                t.add_row({"loads served by L1", std::to_string(r.loads_l1)});
                t.add_row({"loads served by L-NUCA",
                           std::to_string(r.loads_fabric)});
                t.add_row({"loads served by L2", std::to_string(r.loads_l2)});
                t.add_row({"loads served by L3", std::to_string(r.loads_l3)});
                t.add_row({"loads served by D-NUCA",
                           std::to_string(r.loads_dnuca)});
                t.add_row({"loads served by memory",
                           std::to_string(r.loads_memory)});
                t.add_row({"avg load-to-use latency",
                           text_table::num(r.avg_load_latency, 1)});
                for (unsigned level = 2; level < r.fabric_read_hits.size();
                     ++level)
                    t.add_row({"read hits in Le" + std::to_string(level),
                               std::to_string(r.fabric_read_hits[level])});
                if (r.transport_min > 0)
                    t.add_row({"avg/min transport latency",
                               text_table::num(double(r.transport_actual) /
                                                   double(r.transport_min),
                                               3)});
                t.add_row({"search restarts",
                           std::to_string(r.search_restarts)});
                t.add_row({"total energy (mJ)",
                           text_table::num(r.energy.total() * 1e3, 3)});
                t.print();
            }

            if (rep.workload_count > 1) {
                text_table t("Sweep summary");
                t.set_header({"workload", "IPC", "cycles", "load lat.",
                              "energy (mJ)"});
                for (const auto& r : rep.row(0))
                    t.add_row({r.workload_name, text_table::num(r.ipc, 3),
                               std::to_string(r.cycles),
                               text_table::num(r.avg_load_latency, 1),
                               text_table::num(r.energy.total() * 1e3, 3)});
                t.print();
            }
        });
}
