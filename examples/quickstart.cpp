/**
 * @file
 * Quickstart: the whole In-situ AI loop in ~60 lines of user code.
 *
 * 1. Generate an initial batch of (mostly unlabeled) IoT data.
 * 2. Bootstrap in the cloud: unsupervised pre-training, transfer
 *    learning, supervised training, deployment to the node.
 * 3. Stream drifting data through the node: it serves inference,
 *    diagnoses what it does not recognize, uploads only that, and the
 *    cloud incrementally updates the models.
 *
 * Build: cmake --build build --target quickstart
 * Run:   ./build/examples/quickstart
 */
#include <cstdio>

#include "analytics/planner.h"
#include "iot/system.h"

using namespace insitu;

int
main()
{
    // Fig. 24's system (d): a 10-class TinyNet deployment whose
    // diagnosis network shares its first three conv layers with the
    // inference network.
    IotSystemConfig config;
    config.update_epochs = 3;
    config.pretrain_epochs = 2;
    config.seed = 7;
    IotSystemSim system(IotSystemKind::kInsituAi, config);
    // Latency the end user demands from the inference task.
    const double latency_requirement_s = 0.1;

    // Acquire the initial data under mild conditions and bootstrap.
    SynthConfig synth;
    Rng rng(1);
    const Dataset initial =
        make_dataset(synth, 300, Condition::in_situ(0.2), rng);
    std::printf("bootstrap: node accuracy %.2f on initial data\n",
                system.step(initial).accuracy_after);

    // The environment drifts; the node keeps itself current.
    for (int step = 1; step <= 3; ++step) {
        const double severity = 0.2 + 0.1 * step;
        const Dataset stage = make_dataset(
            synth, 120, Condition::in_situ(severity), rng);
        const StageMetrics m = system.step(stage);
        std::printf(
            "step %d (severity %.1f): accuracy %.2f -> %.2f, "
            "uploaded %lld/%lld images (%.0f%% stayed local)\n",
            step, severity, m.accuracy_before, m.accuracy_after,
            static_cast<long long>(m.uploaded),
            static_cast<long long>(m.acquired),
            100.0 * (1.0 - static_cast<double>(m.uploaded) /
                               static_cast<double>(m.acquired)));
    }

    // Ask the planners how to deploy this workload on real hardware,
    // describing the nets the node runs: inference on the whole image,
    // the diagnosis trunk on one tile.
    const int64_t side = config.tiny.image_size;
    const NetworkDesc inference =
        describe(system.cloud().inference(), {3, side, side});
    const NetworkDesc diagnosis =
        describe(system.cloud().jigsaw().trunk(), {3, side / 3, side / 3});
    const SingleRunningPlan single =
        SingleRunningPlanner{GpuModel(tx1_spec())}.plan(
            inference, diagnosis, latency_requirement_s);
    std::printf("Single-running plan on TX1: inference batch %lld "
                "(%s, latency %.1f ms), diagnosis batch %lld (%s)\n",
                static_cast<long long>(single.inference_batch),
                single.inference_latency_limited ? "latency-limited"
                                                 : "search-capped",
                single.inference_latency * 1e3,
                static_cast<long long>(single.diagnosis_batch),
                single.diagnosis_memory_limited ? "memory-limited"
                                                : "search-capped");
    const CoRunningPlan corun =
        CoRunningPlanner{FpgaModel(vx690t_spec())}.plan(
            inference, latency_requirement_s);
    std::printf("Co-running plan on VX690T: WSS group %lld, FCN batch "
                "%lld, latency %.1f ms, %.1f img/s\n",
                static_cast<long long>(corun.config.group_size),
                static_cast<long long>(corun.config.batch),
                corun.latency * 1e3, corun.throughput);
    return 0;
}
