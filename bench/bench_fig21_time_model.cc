/**
 * @file
 * Fig. 21: the analytical time model picks a batch size that yields
 * ~3x speedup over the non-batching default for AlexNet (only ~1.1x
 * for VGG, which saturates the device at batch 1) and lands close to
 * the brute-force profiled best case. The "board" is a DeviceTruth
 * near the model (kFig21Board); each batch size is measured once and
 * every column reads that one profile.
 */
#include <cstdio>

#include "analytics/planner.h"
#include "exp_common.h"

using namespace insitu;
using namespace insitu::bench;

int
main()
{
    banner("Fig 21", "time-model batch selection vs brute force",
           "~3x average speedup over non-batching for AlexNet, ~1.1x "
           "for VGGNet; model pick is close to the profiled best");

    DeviceTruth board(tx1_spec(), kFig21Board);
    SingleRunningPlanner planner{GpuModel(tx1_spec())};

    TablePrinter table({"network", "latency req (ms)", "model batch",
                        "best batch", "speedup vs non-batch",
                        "% of best case"});
    double alexnet_speedup = 0.0, vgg_speedup = 0.0;
    int alexnet_count = 0, vgg_count = 0;
    double worst_gap = 1.0;
    for (const NetworkDesc& net : {alexnet_desc(), vgg16_desc()}) {
        const std::vector<double> measured = profile_batches(board, net);
        // Measured images/s at batch b.
        const auto tp = [&](int64_t b) {
            return static_cast<double>(b) / measured[b - 1];
        };
        for (double req : {0.1, 0.2, 0.4, 0.8}) {
            const int64_t pick =
                planner.max_batch_under_latency(net, req);
            const int64_t best = best_profiled_batch(measured, req);
            const double tp_pick = tp(pick);
            const double tp_best = tp(best);
            const double tp_one = tp(1);
            const double speedup = tp_pick / tp_one;
            const double frac = tp_pick / tp_best;
            worst_gap = std::min(worst_gap, frac);
            if (net.name == "AlexNet") {
                alexnet_speedup += speedup;
                ++alexnet_count;
            } else {
                vgg_speedup += speedup;
                ++vgg_count;
            }
            table.add_row({net.name, TablePrinter::num(req * 1e3, 0),
                           std::to_string(pick), std::to_string(best),
                           TablePrinter::num(speedup, 2) + "x",
                           TablePrinter::num(100.0 * frac, 1)});
        }
    }
    std::printf("%s", table.to_string().c_str());
    maybe_write_csv("fig21", table);
    alexnet_speedup /= alexnet_count;
    vgg_speedup /= vgg_count;
    std::printf("mean speedup: AlexNet %.2fx (paper ~3x), VGGNet "
                "%.2fx (paper ~1.1x)\n",
                alexnet_speedup, vgg_speedup);

    verdict(alexnet_speedup > 2.0 && vgg_speedup < 1.5 &&
                worst_gap > 0.8,
            "AlexNet gains much more from model-guided batching than "
            "VGG, and the model pick stays within 20% of the "
            "brute-force best");
    return 0;
}
