/**
 * @file
 * Deployment planner CLI: given a network, an availability
 * requirement and a latency budget, print the recommended working
 * mode and device configuration — the paper's §IV decision procedure
 * as a tool.
 *
 * Usage: planner_cli [alexnet|vggnet|googlenet|tinynet]
 *                    [latency_ms] [always_on(0|1)]
 * Defaults: alexnet 100 0
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analytics/planner.h"
#include "models/tiny.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace insitu;

namespace {

NetworkDesc
pick_network(const char* name)
{
    if (std::strcmp(name, "vggnet") == 0) return vgg16_desc();
    if (std::strcmp(name, "googlenet") == 0) return googlenet_desc();
    return alexnet_desc();
}

/** Split @p value into a mantissa and the largest SI prefix (G, M,
 * k) that keeps the mantissa at least 1. */
const char*
si_prefix(double& value)
{
    const struct {
        double scale;
        const char* prefix;
    } prefixes[] = {{1e9, "G"}, {1e6, "M"}, {1e3, "k"}};
    for (const auto& p : prefixes) {
        if (value >= p.scale) {
            value /= p.scale;
            return p.prefix;
        }
    }
    return "";
}

} // namespace

int
main(int argc, char** argv)
{
    const char* net_name = argc > 1 ? argv[1] : "alexnet";
    const double latency_s =
        (argc > 2 ? std::atof(argv[2]) : 100.0) / 1e3;
    const bool always_on = argc > 3 && std::atoi(argv[3]) != 0;
    if (latency_s <= 0) fatal("latency must be positive");

    NetworkDesc net, diag;
    if (std::strcmp(net_name, "tinynet") == 0) {
        // The executable TinyNet, described from its layers: the
        // inference net on a whole image, the jigsaw trunk per tile.
        const TinyConfig tiny;
        Rng rng(0);
        const int64_t side = tiny.image_size;
        net = describe(make_tiny_inference(tiny, rng), {3, side, side});
        diag = describe(make_tiny_trunk(tiny, rng),
                        {3, side / 3, side / 3});
    } else {
        net = pick_network(net_name);
        diag = diagnosis_desc(net);
    }
    double ops = net.total_ops(), weights = net.total_weights();
    const char* ops_prefix = si_prefix(ops);
    const char* weights_prefix = si_prefix(weights);
    std::printf("network: %s (%.2f %sFLOP/inference, %.1f %s weights)\n",
                net.name.c_str(), ops, ops_prefix, weights,
                weights_prefix);
    std::printf("latency budget: %.0f ms, inference 24/7: %s\n",
                latency_s * 1e3, always_on ? "yes" : "no");

    const WorkingMode mode = choose_working_mode(always_on);
    std::printf("=> recommended mode: %s\n\n",
                working_mode_name(mode));

    if (mode == WorkingMode::kSingleRunning) {
        SingleRunningPlanner planner{GpuModel(tx1_spec())};
        const SingleRunningPlan plan =
            planner.plan(net, diag, latency_s);
        std::printf("TX1 (mobile GPU) configuration:\n");
        std::printf("  inference: batch %lld (%s), latency %.1f ms, "
                    "%.2f img/s/W\n",
                    static_cast<long long>(plan.inference_batch),
                    plan.inference_latency_limited ? "latency-limited"
                                                   : "search-capped",
                    plan.inference_latency * 1e3,
                    plan.inference_perf_per_watt);
        std::printf("  diagnosis: batch %lld (%s, %.0f MB), "
                    "%.2f img/s/W\n",
                    static_cast<long long>(plan.diagnosis_batch),
                    plan.diagnosis_memory_limited ? "memory-limited"
                                                  : "search-capped",
                    plan.diagnosis_memory_bytes / 1e6,
                    plan.diagnosis_perf_per_watt);
        if (plan.inference_latency > latency_s) {
            std::printf("  warning: even batch 1 misses the budget "
                        "on this device\n");
        }
    } else {
        CoRunningPlanner planner{FpgaModel(vx690t_spec())};
        const CoRunningPlan plan = planner.plan(net, latency_s);
        std::printf("VX690T (FPGA) WSS+NWS configuration:\n");
        if (!plan.feasible) {
            std::printf("  infeasible: no WSS configuration meets "
                        "%.0f ms on this device\n",
                        latency_s * 1e3);
            return 1;
        }
        std::printf("  WSS group %lld (each 14x14 + 9x7x7 PEs), FCN "
                    "engine 8x10\n",
                    static_cast<long long>(plan.config.group_size));
        std::printf("  FCN batch %lld, latency %.1f ms, %.1f img/s, "
                    "%.2f img/s/W\n",
                    static_cast<long long>(plan.config.batch),
                    plan.latency * 1e3, plan.throughput,
                    plan.perf_per_watt);
    }
    return 0;
}
