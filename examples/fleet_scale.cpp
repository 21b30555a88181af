/**
 * @file
 * CLI driver for the sharded discrete-event fleet engine
 * (src/iot/fleet_engine.h): run a fleet of --nodes for --stages
 * windows, optionally under chaos, and write the byte-identical run
 * transcript to --transcript.
 *
 * Determinism contract: the transcript file and the flight dump
 * (INSITU_FLIGHT_DUMP=<path>) are pure functions of the configuration
 * — the check_fleet_scale ctest byte-diffs both across
 * INSITU_THREADS=1 vs 4. Timing lines go to stdout only and are never
 * part of the diffed artifacts.
 *
 * Examples:
 *   fleet_scale --nodes 100000 --stages 6 --chaos \
 *       --transcript /tmp/fleet.txt
 *   INSITU_THREADS=4 INSITU_FLIGHT_DUMP=/tmp/flight.dump \
 *       fleet_scale --nodes 100000 --chaos --transcript /tmp/t4.txt
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "iot/fleet_engine.h"
#include "util/parallel.h"

using namespace insitu;

namespace {

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--nodes N] [--stages S] [--shards K]\n"
        "          [--seed X] [--chaos] [--rollback]\n"
        "          [--transcript PATH]\n"
        "  --nodes N         fleet size (default 100000)\n"
        "  --stages S        stage windows to run (default 6)\n"
        "  --shards K        node-id shards (default 0 = auto)\n"
        "  --seed X          scenario seed (default 2018)\n"
        "  --chaos           crash/drop/poison fault injection\n"
        "  --rollback        end with rollback_and_redeploy(1)\n"
        "  --transcript PATH write the deterministic transcript\n"
        "env: INSITU_FLIGHT_DUMP=<path> writes the flight-recorder\n"
        "     dump (deterministic, byte-diffable across widths)\n",
        argv0);
}

int64_t
parse_i64(const char* s, const char* flag)
{
    char* end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || v < 0) {
        std::fprintf(stderr, "bad value for %s: %s\n", flag, s);
        std::exit(2);
    }
    return static_cast<int64_t>(v);
}

} // namespace

int
main(int argc, char** argv)
{
    int64_t nodes = 100000;
    int stages = 6;
    int shards = 0;
    uint64_t seed = 2018;
    bool chaos = false;
    bool rollback = false;
    std::string transcript_path;

    for (int a = 1; a < argc; ++a) {
        const char* arg = argv[a];
        auto next = [&]() -> const char* {
            if (a + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++a];
        };
        if (std::strcmp(arg, "--nodes") == 0) {
            nodes = parse_i64(next(), "--nodes");
        } else if (std::strcmp(arg, "--stages") == 0) {
            stages = static_cast<int>(parse_i64(next(), "--stages"));
        } else if (std::strcmp(arg, "--shards") == 0) {
            shards = static_cast<int>(parse_i64(next(), "--shards"));
        } else if (std::strcmp(arg, "--seed") == 0) {
            seed = static_cast<uint64_t>(parse_i64(next(), "--seed"));
        } else if (std::strcmp(arg, "--chaos") == 0) {
            chaos = true;
        } else if (std::strcmp(arg, "--rollback") == 0) {
            rollback = true;
        } else if (std::strcmp(arg, "--transcript") == 0) {
            transcript_path = next();
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    ScaleFleetConfig config;
    config.nodes = nodes;
    config.shards = shards;
    config.seed = seed;
    if (chaos) {
        config.crash_permille = 30;
        config.drop_permille = 50;
        config.poison_permille = 150;
        // A generous gate so poisoned stages are visibly *rejected*
        // rather than silently absorbed.
        config.quality_tolerance_ppm = 20000;
    }

    const auto t_build = std::chrono::steady_clock::now();
    ScaleFleetEngine engine(config);
    const auto t_run = std::chrono::steady_clock::now();
    for (int s = 0; s < stages; ++s) engine.run_stage();
    const auto t_done = std::chrono::steady_clock::now();

    const double build_s =
        std::chrono::duration<double>(t_run - t_build).count();
    const double run_s =
        std::chrono::duration<double>(t_done - t_run).count();
    const double events_per_sec =
        run_s > 0 ? static_cast<double>(engine.events_processed()) /
                        run_s
                  : 0.0;

    std::printf("fleet_scale: nodes=%lld shards=%d "
                "stages=%d chaos=%d seed=%llu\n",
                static_cast<long long>(nodes), engine.shards(),
                stages, chaos ? 1 : 0,
                static_cast<unsigned long long>(seed));
    std::printf("events=%lld version=%lld quality_ppm=%lld "
                "quarantined=%lld hot_allocs=%lld "
                "approx_mb=%.1f\n",
                static_cast<long long>(engine.events_processed()),
                static_cast<long long>(engine.version()),
                static_cast<long long>(engine.quality_ppm()),
                static_cast<long long>(engine.quarantined_nodes()),
                static_cast<long long>(engine.hot_allocs()),
                static_cast<double>(engine.approx_bytes()) / 1e6);
    std::printf("timing: build=%.3fs run=%.3fs "
                "events_per_sec=%.0f\n",
                build_s, run_s, events_per_sec);

    if (rollback) {
        const auto t0 = std::chrono::steady_clock::now();
        const bool ok = engine.rollback_and_redeploy(1);
        const double ms =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count() *
            1e3;
        std::printf("rollback: ok=%d version=%lld wall_ms=%.2f\n",
                    ok ? 1 : 0,
                    static_cast<long long>(engine.version()), ms);
        if (!ok) return 1;
    }

    if (!transcript_path.empty()) {
        std::ofstream out(transcript_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         transcript_path.c_str());
            return 1;
        }
        out << engine.transcript();
    }
    if (const char* fp = std::getenv("INSITU_FLIGHT_DUMP");
        fp != nullptr && *fp != '\0') {
        std::ofstream out(fp, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", fp);
            return 1;
        }
        out << engine.flight().encode();
    }
    return 0;
}
