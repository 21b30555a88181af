/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload insitu_loop|node_stream|fleet_scale
 *             --seed N --seconds S --trace 0|1 [--out DIR]
 *             [--commit ID] [--command LINE]
 *   perfbench --selftest
 *
 * With --trace 0 it runs one workload for S seconds and reports the
 * end-to-end metrics; with --trace 1 it runs the traced pass and
 * reports the per-layer metrics. The last stdout line is the result
 * object; the line before it is the full report with the environment
 * block. Normally started through run.py, which builds it first.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "util/parallel.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload insitu_loop|node_stream|"
                 "fleet_scale --seed N --seconds S --trace 0|1\n"
                 "                 [--out DIR] [--commit ID] "
                 "[--command LINE]\n"
                 "       perfbench --selftest\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    bool have_workload = false;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--selftest") {
            return selftest() == 0 ? 0 : 1;
        }
        if (a + 1 >= argc) usage(("missing value for " + arg).c_str());
        const char* v = argv[++a];
        char* end = nullptr;
        if (arg == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0') usage("bad --seed");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(opt.seconds > 0))
                usage("bad --seconds");
        } else if (arg == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            opt.trace = v[0] == '1';
        } else if (arg == "--out") {
            opt.out_dir = v;
        } else if (arg == "--commit") {
            opt.commit = v;
        } else if (arg == "--command") {
            opt.command = v;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    if (opt.workload != "insitu_loop" && opt.workload != "node_stream" &&
        opt.workload != "fleet_scale")
        usage(("unknown workload " + opt.workload).c_str());
    if (opt.out_dir.empty()) opt.out_dir = "perfbench-out";
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    if (ec) usage(("cannot create " + opt.out_dir).c_str());
    if (opt.command.empty()) {
        for (int a = 0; a < argc; ++a)
            opt.command += (a ? " " : "") + std::string(argv[a]);
    }

    // Every workload runs with the pool at min(4, nproc).
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    opt.width = std::min(4, nproc);
    insitu::set_num_threads(opt.width);
    now_s(); // start the clock epoch

    try {
        Tally tally;
        const auto metrics = opt.trace ? run_traced(opt, tally)
                                       : run_workload(opt, tally);
        emit(opt, metrics, tally);
        return tally.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
