/**
 * @file
 * Serving-latency study (docs/serving.md; refreshes Figs 11 and 15
 * with *measured* curves from the simulated host).
 *
 * Part 1 — planner sweep: the three canonical traffic mixes, each
 * served by every static batch size and by the online self-calibrating
 * planner; p50/p99 latency and deadline-miss rate per policy. The
 * tables behind results/serving_planner.md.
 *
 * Part 2 — measured vs modeled: per batch size, the analytical Eq 5
 * latency, the host-measured mean, the calibrated prediction and its
 * residual, next to the Eq 3 utilization the batch buys. This is the
 * measured refresh of the Fig 11 latency curve and the Fig 15
 * utilization curve — the analytical model gives the shape, the
 * calibration pins the scale.
 */
#include <cstdio>

#include "exp_common.h"
#include "obs/export.h"
#include "serving/calibrate.h"
#include "serving/scenarios.h"

using namespace insitu;
using namespace insitu::bench;
using namespace insitu::serving;

namespace {

/** One policy run plus histogram-derived latency percentiles. */
struct PolicyRun {
    ServingReport rep;
    double p50_s = 0;
    double p90_s = 0;
    double p99_s = 0;
    std::string summary; ///< "p50=... p90=... p99=..." (exporter form)
};

/** Run one mix under one policy. Latency percentiles come from the
 * runtime's `serving.request.latency_s` quantized-sum histogram via
 * the exporter's nearest-rank quantile — the same numbers every
 * JSONL consumer sees, not ad-hoc sorted-vector math. */
PolicyRun
run_policy(const std::string& mix, PlannerMode mode, int64_t static_b,
           double duration_s, uint64_t seed)
{
    ServingConfig cfg = make_scenario(mix, duration_s, seed);
    cfg.planner.mode = mode;
    cfg.planner.static_batch = static_b;
    ServingRuntime runtime(cfg);
    PolicyRun out;
    out.rep = runtime.run();
    const obs::MetricsSnapshot snap = runtime.local_metrics().snapshot();
    if (const obs::MetricValue* m =
            snap.find("serving.request.latency_s")) {
        out.p50_s =
            obs::histogram_quantile(m->bounds, m->bucket_counts, 0.50);
        out.p90_s =
            obs::histogram_quantile(m->bounds, m->bucket_counts, 0.90);
        out.p99_s =
            obs::histogram_quantile(m->bounds, m->bucket_counts, 0.99);
        out.summary = obs::histogram_percentile_summary(*m);
    }
    return out;
}

} // namespace

int
main()
{
    banner("serving_latency",
           "online batch planner vs static batching under bursty load",
           "co-running incremental updates must not stall or degrade "
           "the serving path (Sec. 6 'in-situ updating'); one batch "
           "size cannot serve both bursts and deadlines");

    const double duration_s = 30.0;
    const uint64_t seed = 2018;
    const std::vector<int64_t> statics = {1, 2, 4, 8, 16, 32};

    // ---- part 1: the policy sweep over the canonical mixes --------
    bool planner_wins_all = true;
    for (const std::string& mix : scenario_names()) {
        const PolicyRun online = run_policy(
            mix, PlannerMode::kOnline, 0, duration_s, seed);

        std::printf("\nmix %s: %lld requests over %.0fs "
                    "(planner: %lld batches, %lld drain, "
                    "calib scale=%.3f)\n",
                    mix.c_str(),
                    static_cast<long long>(online.rep.total.arrived),
                    duration_s,
                    static_cast<long long>(online.rep.batches),
                    static_cast<long long>(online.rep.drain_batches),
                    online.rep.final_calibration.time_scale);
        std::printf("planner latency histogram: %s (seconds)\n",
                    online.summary.c_str());
        TablePrinter table({"policy", "miss %", "p50 (ms)", "p90 (ms)",
                            "p99 (ms)", "mean batch", "served",
                            "lost"});
        auto add_row = [&table](const std::string& policy,
                                const PolicyRun& r) {
            table.add_row(
                {policy,
                 TablePrinter::num(100.0 * r.rep.total.miss_rate, 2),
                 TablePrinter::num(r.p50_s * 1e3, 2),
                 TablePrinter::num(r.p90_s * 1e3, 2),
                 TablePrinter::num(r.p99_s * 1e3, 2),
                 TablePrinter::num(r.rep.mean_batch_size, 2),
                 std::to_string(r.rep.total.served),
                 std::to_string(r.rep.total.dropped_capacity +
                                r.rep.total.shed_expired)});
        };
        add_row("planner", online);
        for (int64_t b : statics) {
            const PolicyRun st = run_policy(
                mix, PlannerMode::kStatic, b, duration_s, seed);
            add_row("static-" + std::to_string(b), st);
            if (online.rep.total.miss_rate > st.rep.total.miss_rate)
                planner_wins_all = false;
        }
        std::printf("%s", table.to_string().c_str());
        maybe_write_csv("serving_latency_" + mix, table);
    }

    // ---- part 2: measured vs modeled (Fig 11 / Fig 15 refresh) ----
    std::printf("\nmeasured vs modeled (AlexNet on the TX1 host "
                "profile, 32 samples per batch size):\n");
    const DeviceTruthConfig truth = serving_host(seed);
    DeviceTruth host(tx1_spec(), truth);
    GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();

    std::vector<BatchRecord> measured;
    for (int64_t b : statics)
        for (int i = 0; i < 32; ++i) {
            BatchRecord r;
            r.size = b;
            r.pure_exec_s = host.run_batch(net, b, 1.0);
            measured.push_back(r);
        }
    const auto points = calibration_points(measured);
    gpu.set_calibration(fit_calibration(gpu, net, points));

    TablePrinter model({"batch", "Eq5 model (ms)", "measured (ms)",
                        "calibrated (ms)", "residual %", "Eq3 util %"});
    double max_abs_residual = 0.0;
    double util_1 = 0.0, util_32 = 0.0;
    for (const auto& o : points) {
        const double analytical = gpu.network_latency(net, o.batch);
        const double calibrated =
            gpu.predicted_batch_latency(net, o.batch);
        const double residual =
            gpu.residual(net, o.batch, o.mean_seconds);
        max_abs_residual =
            std::max(max_abs_residual, std::abs(residual));
        // Ops-weighted Eq 3 utilization across the network's layers.
        double util = 0.0;
        for (const auto& l : net.layers)
            util += gpu.utilization(l, o.batch) * l.ops() /
                    net.total_ops();
        if (o.batch == 1) util_1 = util;
        if (o.batch == 32) util_32 = util;
        model.add_row({std::to_string(o.batch),
                       TablePrinter::num(analytical * 1e3, 2),
                       TablePrinter::num(o.mean_seconds * 1e3, 2),
                       TablePrinter::num(calibrated * 1e3, 2),
                       TablePrinter::num(100.0 * residual, 2),
                       TablePrinter::num(100.0 * util, 1)});
    }
    std::printf("%s", model.to_string().c_str());
    std::printf("fitted: scale=%.4f overhead=%.3fms (host truth: "
                "%.4f / %.3fms)\n",
                gpu.calibration().time_scale,
                gpu.calibration().overhead_s * 1e3,
                truth.time_scale, truth.overhead_s * 1e3);
    maybe_write_csv("serving_calibration", model);

    const bool calibrated_close = max_abs_residual < 0.05;
    const bool util_grows = util_32 > 1.2 * util_1 && util_32 > 0.9;
    verdict(planner_wins_all && calibrated_close && util_grows,
            "planner's miss rate <= every static batch on every mix; "
            "calibrated predictions within 5% of measurement; Eq 3 "
            "utilization grows with batch");
    return planner_wins_all && calibrated_close ? 0 : 1;
}
