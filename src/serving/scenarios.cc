#include "serving/scenarios.h"

#include "util/logging.h"

namespace insitu::serving {

std::vector<std::string>
scenario_names()
{
    return {"interactive_burst", "bulk_heavy", "diurnal_corun"};
}

ServingConfig
make_scenario(const std::string& name, double duration_s,
              uint64_t seed)
{
    ServingConfig cfg;
    cfg.mix.name = name;
    cfg.mix.duration_s = duration_s;
    cfg.mix.seed = seed;
    cfg.planner.mode = PlannerMode::kOnline;

    // Capacity anchors of the (jitter-free) device: the service time
    // of a single image and the best sustainable rate at the batch cap.
    const NetworkDesc net = alexnet_desc();
    const DeviceTruth probe(tx1_spec(), serving_host(seed));
    const double l1 = probe.mean_batch_seconds(net, 1);
    const double lmax = probe.mean_batch_seconds(net, kMaxBatch);
    const double cap_rate = static_cast<double>(kMaxBatch) / lmax;

    // Interactive traffic is the guaranteed class; standard and bulk
    // are best-effort — the degradation ladder may shed them at
    // admission to protect interactive deadlines on a sick device.
    const RequestClass interactive{"interactive", 6.0 * l1, 0.0,
                                   false};
    const RequestClass standard{"standard", 20.0 * l1, 0.0, true};
    const RequestClass bulk{"bulk", 60.0 * l1, 0.0, true};

    if (name == "interactive_burst") {
        // Calm traffic fits batch-1 capacity; bursts overshoot it
        // several-fold (but stay under the batch cap's capacity, so
        // batching — sized right — can absorb them).
        cfg.mix.calm_rate_hz = 0.7 / l1;
        cfg.mix.burst_rate_mult = 6.0;
        cfg.mix.mean_calm_s = 6.0;
        cfg.mix.mean_burst_s = 1.5;
        cfg.mix.classes = {interactive, standard};
        cfg.mix.classes[0].weight = 0.7;
        cfg.mix.classes[1].weight = 0.3;
    } else if (name == "bulk_heavy") {
        // Sustained load near the batch cap's capacity with loose
        // deadlines: a throughput problem, not a latency one.
        cfg.mix.calm_rate_hz = 0.55 * cap_rate;
        cfg.mix.burst_rate_mult = 1.6;
        cfg.mix.mean_calm_s = 8.0;
        cfg.mix.mean_burst_s = 3.0;
        cfg.mix.classes = {bulk, standard};
        cfg.mix.classes[0].weight = 0.9;
        cfg.mix.classes[1].weight = 0.1;
    } else if (name == "diurnal_corun") {
        // Everything at once: three deadline classes, bursts, a
        // co-running diagnosis kernel and incremental weight swaps.
        cfg.mix.calm_rate_hz = 0.6 / l1;
        cfg.mix.burst_rate_mult = 8.0;
        cfg.mix.mean_calm_s = 5.0;
        cfg.mix.mean_burst_s = 2.0;
        cfg.mix.classes = {interactive, standard, bulk};
        cfg.mix.classes[0].weight = 0.4;
        cfg.mix.classes[1].weight = 0.4;
        cfg.mix.classes[2].weight = 0.2;
        cfg.corun.diagnosis_period_s = 3.0;
        cfg.corun.update_period_s = 7.0;
    } else {
        fatal("unknown serving scenario '" + name + "'");
    }
    return cfg;
}

ServingConfig
make_device_chaos(double duration_s, uint64_t seed)
{
    // The full co-running mix, then a sick device: a long thermal
    // throttle with a jitter storm inside it, plus occasional
    // transient stalls across the whole run. Windows are fractions
    // of the horizon so the scenario keeps its shape at any
    // duration; the tail after the throttle lifts (last 20%) gives
    // probation room to recover.
    ServingConfig cfg =
        make_scenario("diurnal_corun", duration_s, seed);
    cfg.mix.name = "device_chaos";
    cfg.device_faults.throttles.push_back(
        {0.30 * duration_s, 0.80 * duration_s, 2.3, 2.0});
    cfg.device_faults.jitter_storms.push_back(
        {0.45 * duration_s, 0.70 * duration_s, 0.35});
    cfg.device_faults.transient_stall_prob = 0.03;
    cfg.device_faults.transient_stall_mult = 5.0;
    cfg.device_faults.seed = seed ^ 0xDEC0DEULL;
    return cfg;
}

} // namespace insitu::serving
