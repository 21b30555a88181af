/**
 * @file
 * Fig. 7: fine-tuning only on the *incorrectly predicted* images
 * (Net-Err) nearly matches fine-tuning on all remaining data
 * (Net-50k-200k) while moving the least data and training fastest.
 *
 * Reproduction at 1/167 scale: 50k -> 300 etc. Train Net-300, collect
 * its errors on the remaining 900, then compare four fine-tunes.
 */
#include <cstdio>

#include "exp_common.h"

using namespace insitu;
using namespace insitu::bench;

int
main()
{
    banner("Fig 7", "value of unrecognized data for incremental "
                    "training",
           "Net-Err (errors only) ~= Net-50k-200k accuracy with the "
           "least data and training time");

    TrainScale scale;
    scale.epochs = 3;
    scale.lr = 0.005; // gentle fine-tuning, shared by all variants
    Rng rng(scale.seed);
    SynthConfig synth;
    TinyConfig config;
    // The in-situ setting: the base model saw mild conditions; the
    // incremental stream arrives under harsher drift, so the
    // unrecognized images are exactly the drift the model must learn.
    const Condition cond = Condition::in_situ(0.5);

    const Dataset base =
        make_dataset(synth, 500, Condition::in_situ(0.2), rng);
    const Dataset rest = make_dataset(synth, 900, cond, rng);
    const Dataset test = make_dataset(synth, 400, cond, rng);

    Rng net_rng(scale.seed + 1);
    Network net_base = make_tiny_inference(config, net_rng);
    {
        TrainScale base_scale = scale;
        base_scale.lr = 0.01;
        fit(net_base, base, base_scale, 6);
    }
    const double base_acc = accuracy(net_base, test);

    // Collect the images Net-300 gets wrong on the remaining stream.
    std::vector<int64_t> wrong;
    {
        std::vector<int64_t> preds;
        for (int64_t b = 0; b < rest.size(); b += 64) {
            const int64_t e = std::min<int64_t>(rest.size(), b + 64);
            const Tensor lg =
                net_base.forward(rest.images.slice0(b, e), false);
            for (int64_t p : lg.argmax_rows()) preds.push_back(p);
        }
        for (size_t i = 0; i < preds.size(); ++i)
            if (preds[i] != rest.labels[i])
                wrong.push_back(static_cast<int64_t>(i));
    }
    const Dataset errors = gather_dataset(rest, wrong);

    const Dataset all = concat_datasets({&base, &rest});

    struct Variant {
        const char* name;
        const Dataset* data;
    };
    const Variant variants[] = {
        {"Net-50k (base)", nullptr},
        {"Net-Err (errors only)", &errors},
        {"Net-50k-150k (all remaining)", &rest},
        {"Net-50k-200k (everything)", &all},
    };

    TablePrinter table({"variant", "fine-tune images", "accuracy",
                        "fine-tune time (s)"});
    std::vector<double> accs;
    double err_time = 0.0, all_time = 0.0;
    for (const Variant& v : variants) {
        double acc = base_acc, secs = 0.0;
        int64_t used = 0;
        if (v.data != nullptr) {
            Network net = make_tiny_inference(config, net_rng);
            copy_parameters(net, net_base);
            secs = fit(net, *v.data, scale);
            acc = accuracy(net, test);
            used = v.data->size();
        }
        accs.push_back(acc);
        if (v.data == &errors) err_time = secs;
        if (v.data == &all) all_time = secs;
        table.add_row({v.name, std::to_string(used),
                       TablePrinter::num(acc, 3),
                       TablePrinter::num(secs, 2)});
    }
    std::printf("%s", table.to_string().c_str());
    maybe_write_csv("fig7", table);

    const double err_gain = accs[1] - accs[0];
    const double full_gain = accs[3] - accs[0];
    const bool err_matches_full = err_gain > 0.6 * full_gain;
    const bool err_improves = accs[1] > accs[0] + 0.05;
    const bool err_cheapest = err_time < all_time;
    std::printf("errors-only recovers %.0f%% of the full-data "
                "accuracy gain\n",
                100.0 * err_gain / full_gain);
    verdict(err_matches_full && err_improves && err_cheapest,
            "errors-only fine-tuning recovers most of the full-data "
            "accuracy gain at a fraction of the data and time");
    return 0;
}
