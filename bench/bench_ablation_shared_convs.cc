/**
 * @file
 * Ablation: how many conv layers to weight-share between the
 * diagnosis and inference networks. The paper picks three (Fig. 6);
 * this sweep shows the full trade-off: more sharing means cheaper
 * incremental updates (fewer trainable ops, Eq-style cost) and a
 * smaller node memory footprint, but past the transferable prefix the
 * inference accuracy decays.
 */
#include <cstdio>

#include "cloud/cost_model.h"
#include "exp_common.h"

using namespace insitu;
using namespace insitu::bench;

int
main()
{
    banner("Ablation", "shared conv prefix depth (0..5)",
           "update cost falls with sharing; accuracy holds through "
           "CONV-3 then decays");

    TrainScale scale;
    scale.epochs = 5;
    Rng rng(scale.seed);
    SynthConfig synth;
    TinyConfig config;

    const Dataset raw =
        make_dataset(synth, 700, Condition::in_situ(0.3), rng);
    const Dataset labeled =
        make_dataset(synth, 300, Condition::in_situ(0.3), rng);
    const Dataset test =
        make_dataset(synth, 400, Condition::in_situ(0.3), rng);

    PermutationSet perms(config.num_permutations, rng);
    Rng jig_rng(scale.seed + 1);
    JigsawNetwork jigsaw = make_tiny_jigsaw(config, jig_rng);
    Rng pre_rng(scale.seed + 2);
    pretrain_jigsaw(jigsaw, perms, raw.images, 6, pre_rng);

    TrainingCostModel cost(titan_x_spec());
    TablePrinter table({"shared convs", "accuracy",
                        "update energy (J @100k imgs)",
                        "shared weights (bytes)"});
    std::vector<double> accs, energies;
    for (size_t shared = 0; shared <= kTinyConvCount; ++shared) {
        Rng net_rng(scale.seed + 10);
        Network net = make_tiny_inference(config, net_rng);
        net.copy_convs_from(jigsaw.trunk(), kTinyConvCount);
        net.freeze_first_convs(shared);
        fit(net, labeled, scale);
        const double acc = accuracy(net, test);
        const double energy =
            cost.train_cost(describe(net, {3, config.image_size,
                                           config.image_size}),
                            100e3, 1, shared)
                .energy_j;

        // Node memory the sharing saves: the shared prefix exists
        // once instead of twice.
        double shared_bytes = 0.0;
        const auto convs = net.conv_layer_indices();
        for (size_t i = 0; i < shared; ++i)
            for (auto& p : net.layer(convs[i]).params())
                shared_bytes += 4.0 * static_cast<double>(p->numel());

        accs.push_back(acc);
        energies.push_back(energy);
        table.add_row({std::to_string(shared),
                       TablePrinter::num(acc, 3),
                       TablePrinter::num(energy, 0),
                       TablePrinter::num(shared_bytes, 0)});
    }
    std::printf("%s", table.to_string().c_str());
    maybe_write_csv("ablation_shared_convs", table);

    bool energy_monotone = true;
    for (size_t i = 1; i < energies.size(); ++i)
        if (energies[i] > energies[i - 1]) energy_monotone = false;
    const bool conv3_holds = accs[3] > accs[0] - 0.12;
    const bool conv5_decays = accs[5] < accs[3];
    verdict(energy_monotone && conv3_holds && conv5_decays,
            "update energy is monotone decreasing in the shared "
            "prefix; accuracy survives 3 shared convs and decays "
            "beyond — CONV-3 is the sweet spot the paper picks");
    return 0;
}
