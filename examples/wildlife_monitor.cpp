/**
 * @file
 * Wildlife-sanctuary camera trap (the paper's motivating scenario).
 *
 * A Serengeti-style monitoring node classifies animals from camera
 * traps. Inference runs during the day; the diagnosis task runs at
 * night when the cameras are quiet — the Single-running mode — so the
 * node plans both tasks on its mobile GPU with the time and resource
 * models, and the day/night cycle drives real distribution drift.
 */
#include <cstdio>

#include "analytics/planner.h"
#include "iot/system.h"

using namespace insitu;

namespace {

/** One day of sanctuary data: bright mornings, dim evenings. */
Dataset
day_capture(const SynthConfig& synth, int day, Rng& rng)
{
    // The dry season progresses: haze and harsher light drift the
    // distribution a little every day.
    const double severity = 0.15 + 0.04 * day;
    Condition cond = Condition::in_situ(severity);
    cond.name = "day-" + std::to_string(day);
    return make_dataset(synth, 100, cond, rng);
}

} // namespace

int
main()
{
    std::printf("== Serengeti-style wildlife monitor ==\n");

    IotSystemConfig config;
    config.update_epochs = 3;
    config.pretrain_epochs = 2;
    config.seed = 7;
    IotSystemSim system(IotSystemKind::kInsituAi, config);
    const double latency_requirement_s = 0.033; // 30 FPS trigger bursts

    // Cameras sleep at night, so inference is not always on.
    std::printf("working mode: %s (inference is not 24/7)\n",
                working_mode_name(
                    choose_working_mode(/*inference_always_on=*/false)));

    SynthConfig synth;
    Rng rng(42);
    const Dataset initial =
        make_dataset(synth, 400, Condition::in_situ(0.15), rng);
    std::printf("bootstrap accuracy: %.2f\n",
                system.step(initial).accuracy_after);

    // A week in the sanctuary.
    double uploaded = 0, acquired = 0;
    for (int day = 1; day <= 5; ++day) {
        const Dataset capture = day_capture(synth, day, rng);
        const StageMetrics m = system.step(capture);
        uploaded += static_cast<double>(m.uploaded);
        acquired += static_cast<double>(m.acquired);
        std::printf("day %d: %3lld/%3lld uploaded, day accuracy "
                    "%.2f -> %.2f\n",
                    day, static_cast<long long>(m.uploaded),
                    static_cast<long long>(m.acquired),
                    m.accuracy_before, m.accuracy_after);
    }
    std::printf("week total: %.0f%% of captures never left the "
                "sanctuary\n",
                100.0 * (1.0 - uploaded / acquired));

    // Nightly schedule: the time model picks the inference burst
    // batch; Eq (9) sizes the big nightly diagnosis batches.
    SingleRunningPlanner planner{GpuModel(tx1_spec())};
    const SingleRunningPlan plan =
        planner.plan(alexnet_desc(), diagnosis_desc(alexnet_desc()),
                     latency_requirement_s);
    std::printf("TX1 schedule: day inference batch %lld "
                "(%.1f ms, %.2f img/s/W), night diagnosis batch %lld "
                "(%.2f img/s/W)\n",
                static_cast<long long>(plan.inference_batch),
                plan.inference_latency * 1e3,
                plan.inference_perf_per_watt,
                static_cast<long long>(plan.diagnosis_batch),
                plan.diagnosis_perf_per_watt);

    // What the radio saves compared to shipping everything.
    const LinkSpec link = iot_uplink_spec();
    const double all_j =
        link.transfer_energy(acquired * kImageScale * bytes_per_image());
    const double ours_j =
        link.transfer_energy(uploaded * kImageScale * bytes_per_image());
    std::printf("radio energy at paper scale: %.0f J vs %.0f J "
                "(%.0f%% saved)\n",
                all_j, ours_j, 100.0 * (1.0 - ours_j / all_j));
    return 0;
}
