/**
 * @file
 * Fig. 25: cloud energy consumption and model-update time of the four
 * IoT systems of Fig. 24 across the incremental stages. In-situ AI
 * (d) consumes the least energy — the diagnosis cuts retraining data
 * (a vs b) and weight sharing restricts the transfer learning to the
 * last conv layers (c vs d) — and its model-update speedup over (a)
 * grows with the data volume (1.15x at 100k up to 3.3x at 1200k).
 *
 * A second section stresses the end-to-end loop under a chaos
 * FaultPlan (flapping link, crash-looping node, poisoned update) and
 * compares the supervised fleet (circuit breakers + quarantine +
 * canary rollout) against the same fleet with supervision off:
 * radio energy per delivered image and post-poison accuracy.
 */
#include <cstdio>

#include "exp_common.h"
#include "iot/fleet.h"
#include "iot/system.h"

using namespace insitu;
using namespace insitu::bench;

namespace {

/** Supervised-vs-unsupervised chaos comparison for one fleet run. */
struct ChaosOutcome {
    double radio_joules = 0;
    int64_t delivered = 0;
    double post_poison_accuracy = 0;

    double joules_per_image() const
    {
        return delivered ? radio_joules /
                               static_cast<double>(delivered)
                         : 0.0;
    }
};

ChaosOutcome
run_chaos(bool supervised)
{
    FleetSim fleet(chaos_fleet_config(supervised));
    fleet.bootstrap(90, 0.2);
    ChaosOutcome out;
    for (int stage = 0; stage < 5; ++stage) {
        const FleetStageReport r =
            fleet.run_stage(45, 0.25 + 0.03 * stage);
        if (r.poisoned) out.post_poison_accuracy = r.mean_accuracy_after;
    }
    for (size_t i = 0; i < fleet.size(); ++i) {
        out.radio_joules += fleet.uplink(i).stats().energy_j;
        out.delivered += fleet.uplink(i).stats().delivered;
    }
    return out;
}

} // namespace

int
main()
{
    banner("Fig 25", "energy and model-update time of systems a-d",
           "In-situ AI uses the least cloud energy; update speedup "
           "over (a) grows from ~1.15x to ~3.3x across stages");

    IotSystemConfig config;
    config.tiny.num_permutations = 16;
    config.update_epochs = 2;
    config.update_lr = 0.01;
    config.pretrain_epochs = 4;
    config.incremental_pretrain_epochs = 2;
    config.seed = 2018;

    // Three training trajectories: (b) trains exactly what (c) trains
    // and differs only in its pricing, so it is priced from (c)'s run.
    const IotSystemKind kinds[] = {IotSystemKind::kCloudAll,
                                   IotSystemKind::kNodeDiagnosis,
                                   IotSystemKind::kInsituAi};

    std::vector<std::vector<StageMetrics>> all;
    for (IotSystemKind kind : kinds) {
        IotSystemSim sim(kind, config);
        IotStream stream(SynthConfig{},
                         paper_incremental_schedule(0.002), 2018);
        const std::vector<StageMetrics> stages = sim.run(stream);
        if (kind == IotSystemKind::kNodeDiagnosis) {
            std::vector<StageMetrics> b;
            for (const StageMetrics& m : stages)
                b.push_back(price_stage(IotSystemKind::kCloudDiagnosis,
                                        config, m));
            all.push_back(b);
            std::printf("simulated %s\n",
                        iot_system_name(IotSystemKind::kCloudDiagnosis));
        }
        all.push_back(stages);
        std::printf("simulated %s\n", iot_system_name(kind));
    }

    const char* cumulative[] = {"100k", "200k", "400k", "800k",
                                "1200k"};
    TablePrinter energy({"stage", "a (kJ)", "b (kJ)", "c (kJ)",
                         "d (kJ)"});
    TablePrinter update({"stage", "a update (s)", "d update (s)",
                         "speedup d vs a"});
    bool d_always_least = true;
    double first_speedup = 0.0, last_speedup = 0.0;
    for (size_t s = 0; s < all[0].size(); ++s) {
        std::vector<std::string> row{cumulative[s]};
        for (size_t k = 0; k < 4; ++k)
            row.push_back(TablePrinter::num(
                all[k][s].cloud_energy_j / 1e3, 1));
        energy.add_row(row);
        for (size_t k = 0; k < 3; ++k)
            if (all[3][s].cloud_energy_j >
                all[k][s].cloud_energy_j + 1e-9)
                d_always_least = false;
        const double speedup =
            all[0][s].update_seconds / all[3][s].update_seconds;
        if (s == 0) first_speedup = speedup;
        last_speedup = speedup;
        update.add_row({cumulative[s],
                        TablePrinter::num(all[0][s].update_seconds, 1),
                        TablePrinter::num(all[3][s].update_seconds, 1),
                        TablePrinter::num(speedup, 2) + "x"});
    }
    std::printf("cloud energy per stage:\n%s",
                energy.to_string().c_str());
    std::printf("model update time (upload + training):\n%s",
                update.to_string().c_str());
    maybe_write_csv("fig25_energy", energy);
    maybe_write_csv("fig25_update_time", update);

    // Aggregate energy saving of d vs a (paper: 30-70%).
    double ea = 0.0, ed = 0.0;
    for (size_t s = 0; s < all[0].size(); ++s) {
        ea += all[0][s].cloud_energy_j;
        ed += all[3][s].cloud_energy_j;
    }
    std::printf("total cloud energy saving of In-situ AI vs (a): "
                "%.0f%% (paper: 30-70%%)\n",
                100.0 * (1.0 - ed / ea));

    // Supervision under chaos: same FaultPlan with and without the
    // self-healing layer. Delivered-image counts diverge once the
    // models do, so the fair radio metric is J per delivered image.
    std::printf("\nchaos fleet, supervised vs unsupervised:\n");
    const ChaosOutcome sup = run_chaos(true);
    const ChaosOutcome unsup = run_chaos(false);
    TablePrinter chaos({"fleet", "radio (J/img)", "delivered",
                        "post-poison acc"});
    chaos.add_row({"supervised",
                   TablePrinter::num(sup.joules_per_image(), 4),
                   TablePrinter::num(
                       static_cast<double>(sup.delivered), 0),
                   TablePrinter::num(sup.post_poison_accuracy, 2)});
    chaos.add_row({"unsupervised",
                   TablePrinter::num(unsup.joules_per_image(), 4),
                   TablePrinter::num(
                       static_cast<double>(unsup.delivered), 0),
                   TablePrinter::num(unsup.post_poison_accuracy, 2)});
    std::printf("%s", chaos.to_string().c_str());
    std::printf("breakers save %.0f%% radio energy per image; canary "
                "recovers %+.2f accuracy after the poisoned stage\n",
                100.0 * (1.0 - sup.joules_per_image() /
                                   unsup.joules_per_image()),
                sup.post_poison_accuracy - unsup.post_poison_accuracy);
    maybe_write_csv("fig25_chaos_supervision", chaos);
    const bool supervision_helps =
        sup.joules_per_image() < unsup.joules_per_image() &&
        sup.post_poison_accuracy > unsup.post_poison_accuracy;

    verdict(d_always_least && last_speedup > first_speedup &&
                last_speedup > 1.3 && supervision_helps,
            "In-situ AI consumes the least cloud energy at every "
            "stage, its update speedup grows with data volume, and "
            "the supervised fleet beats the unsupervised one under "
            "chaos");
    return 0;
}
