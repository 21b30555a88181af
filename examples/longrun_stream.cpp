/**
 * @file
 * Long-horizon deployment study: 14 simulated days of a solar-powered
 * node under a periodic day/night environment with seasonal drift.
 *
 * Exercises the extension modules together: EnvironmentSchedule
 * drives the data conditions hour by hour, the node serves inference
 * and defers diagnosis uploads into an UplinkQueue that only drains
 * during the night radio window, the duty-cycle scheduler prices the
 * node-day, and a Battery integrates the energy. The cloud keeps a
 * versioned registry and rolls back regressed updates.
 */
#include <cstdio>

#include "cloud/registry.h"
#include "data/schedule.h"
#include "hw/battery.h"
#include "iot/scheduler.h"
#include "iot/system.h"
#include "iot/uplink.h"

using namespace insitu;

int
main()
{
    std::printf("== 14-day solar deployment study ==\n");

    IotSystemConfig config;
    config.update_epochs = 2;
    config.pretrain_epochs = 2;
    config.seed = 7;
    IotSystemSim system(IotSystemKind::kInsituAi, config);

    SynthConfig synth;
    Rng rng(7);
    EnvironmentSchedule env;
    env.base_severity = 0.15;
    env.night_amplitude = 0.35;
    env.drift_per_day = 0.01; // dry season approaching

    const Dataset initial =
        make_dataset(synth, 300, env.at_hours(12.0), rng);
    system.step(initial);

    // Node-side infrastructure.
    DutyCycleConfig duty;
    duty.frames_per_day = 60; // matches the simulated capture rate
    DutyCycleScheduler scheduler(GpuModel(tx1_spec()), duty);
    const int64_t side = config.tiny.image_size;
    const DutyCyclePlan day_plan = scheduler.plan(
        describe(system.cloud().inference(), {3, side, side}),
        describe(system.cloud().jigsaw().trunk(), {3, side / 3, side / 3}));
    BatterySpec battery_spec;
    battery_spec.harvest_wh_per_day = 42.0; // sized for ~37 Wh/day load
    Battery battery(battery_spec);
    UplinkQueue uplink(iot_uplink_spec(),
                       kImageScale * bytes_per_image());
    ModelRegistry registry;

    Dataset holdout = make_dataset(synth, 200, env.at_hours(12.0), rng);
    registry.commit(system.cloud().inference(), "bootstrap",
                    system.node().inference().accuracy(holdout),
                    initial.size());

    int rollbacks = 0;
    bool powered = true;
    for (int day = 1; day <= 14 && powered; ++day) {
        // Capture at noon and at dusk; conditions come from the
        // schedule, so nights and the seasonal drift both matter.
        const double t0 = (day - 1) * 24.0;
        const Dataset noon =
            make_dataset(synth, 30, env.at_hours(t0 + 12.0), rng);
        const Dataset dusk =
            make_dataset(synth, 30, env.at_hours(t0 + 19.0), rng);
        const Dataset capture = concat_datasets({&noon, &dusk});

        const StageMetrics m = system.step(capture);
        uplink.enqueue(m.uploaded, t0 * 3600.0);
        // Radio window: 22:00 - 06:00.
        uplink.drain_window((t0 + 22.0) * 3600.0,
                            (t0 + 30.0) * 3600.0);

        // Validate and version the refreshed model.
        const double val =
            system.node().inference().accuracy(holdout);
        registry.commit(system.cloud().inference(),
                        "day-" + std::to_string(day), val,
                        initial.size() + day * 60);
        if (registry
                .rollback_if_regressed(system.cloud().inference(),
                                       0.15)
                .has_value()) {
            ++rollbacks;
        }

        // Energy: the scheduler's modeled day plus radio draw.
        const double radio_wh = uplink.stats().energy_j / 3600.0;
        powered = battery.step_day(day_plan.energy_wh + radio_wh,
                                   day % 7 == 0 ? 0.4 : 1.0);
        std::printf("day %2d: sev %.2f, acc %.2f, uploaded %2lld, "
                    "backlog %lld, battery %3.0f%%\n",
                    day, env.severity_at_hours(t0 + 12.0), val,
                    static_cast<long long>(m.uploaded),
                    static_cast<long long>(uplink.backlog()),
                    100.0 * battery.state_of_charge());
    }

    std::printf("survived: %s | min charge %.0f%% | uplink mean "
                "delay %.1f h | rollbacks %d | versions %zu\n",
                powered ? "yes" : "no",
                100.0 * battery.min_state_of_charge(),
                uplink.stats().mean_delay_s() / 3600.0, rollbacks,
                registry.size());
    return powered ? 0 : 1;
}
