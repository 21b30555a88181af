/**
 * @file
 * Table II: normalized data movement per update stage. Systems a/b
 * upload everything (1.0 at every stage); systems c/d with on-node
 * diagnosis upload a shrinking fraction (paper: 1, 0.72, 0.51, 0.35,
 * 0.29) as the incrementally updated model recognizes more of the
 * stream.
 */
#include <cstdio>

#include "exp_common.h"
#include "iot/system.h"

using namespace insitu;
using namespace insitu::bench;

int
main()
{
    banner("Table II", "normalized data movement per update stage",
           "a/b: 1,1,1,1,1 — c/d: 1, 0.72, 0.51, 0.35, 0.29");

    IotSystemConfig config;
    config.tiny.num_permutations = 16;
    config.update_epochs = 2;
    config.update_lr = 0.01;
    config.pretrain_epochs = 4;
    config.incremental_pretrain_epochs = 2;
    config.seed = 2018;

    IotSystemSim sim(IotSystemKind::kInsituAi, config);
    IotStream stream(SynthConfig{}, paper_incremental_schedule(0.002),
                     2018);
    const auto stages = sim.run(stream);

    const double paper_cd[] = {1.0, 0.72, 0.51, 0.35, 0.29};
    TablePrinter table({"stage (cumulative paper images)", "a/b",
                        "paper c/d", "ours c/d (flag rate)"});
    const char* cumulative[] = {"100k", "200k", "400k", "800k",
                                "1200k"};
    bool decreasing = true;
    double prev = 1.01;
    for (size_t i = 0; i < stages.size(); ++i) {
        const double ours =
            static_cast<double>(stages[i].uploaded) /
            static_cast<double>(stages[i].acquired);
        if (i > 0 && ours > prev + 1e-9) decreasing = false;
        prev = ours;
        table.add_row({cumulative[i], "1.00",
                       TablePrinter::num(paper_cd[i], 2),
                       TablePrinter::num(ours, 2)});
    }
    std::printf("%s", table.to_string().c_str());
    maybe_write_csv("table2", table);

    const double last =
        static_cast<double>(stages.back().uploaded) /
        static_cast<double>(stages.back().acquired);
    std::printf("data movement reduction at the final stage: %.0f%% "
                "(paper: 71%%)\n",
                100.0 * (1.0 - last));
    verdict(decreasing && last < 0.7,
            "the uploaded fraction shrinks stage over stage as the "
            "model adapts, reaching a >30% reduction");
    return 0;
}
