/**
 * @file
 * Fleet scaling sweep on the sharded discrete-event engine: 10 →
 * 1,000,000 nodes, events/sec per size, memory footprint, and the
 * rollback-latency column that must stay flat in fleet size (the
 * copy-on-write registry makes rollback O(1), nodes adopt lazily).
 *
 * A second, paper-facing section keeps the original pooled-upload
 * study on the full FleetSim (real networks): a node adapts faster
 * when siblings contribute flagged data to the shared cloud model.
 *
 * Records per-size throughput and peak-RSS gauges
 * (`fleet.scale.n<N>.*`), exported with INSITU_TELEMETRY_JSONL set.
 */
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "exp_common.h"
#include "iot/fleet.h"
#include "iot/fleet_engine.h"
#include "obs/metrics.h"
#include "util/parallel.h"

using namespace insitu;
using namespace insitu::bench;

namespace {

double
peak_rss_mb()
{
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
    // ru_maxrss is KiB on Linux.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct SweepPoint {
    int64_t nodes = 0;
    double events_per_sec = 0.0;
    double rollback_ms = 0.0;
};

} // namespace

int
main()
{
    banner("fleet_scaling",
           "sharded discrete-event fleet: 10 -> 1M nodes",
           "node-parallel stage step sharded by node id, serial-fold "
           "merge, COW registry; throughput should scale near-"
           "linearly and rollback latency stay flat");

    auto& metrics = obs::MetricsRegistry::global();

    // --- Part 1: discrete-event sweep -------------------------------
    const int kStages = 4;
    TablePrinter table({"nodes", "shards", "events", "events/sec",
                        "approx MB", "rollback ms"});
    std::vector<SweepPoint> points;
    for (int64_t nodes : {10LL, 100LL, 1000LL, 10000LL, 100000LL,
                          1000000LL}) {
        ScaleFleetConfig config;
        config.nodes = nodes;
        config.seed = 2018;
        ScaleFleetEngine engine(config);

        // Warm-up stage, excluded from the timed rate.
        engine.run_stage();
        const int64_t warm_events = engine.events_processed();

        const auto t0 = std::chrono::steady_clock::now();
        for (int s = 1; s < kStages; ++s) engine.run_stage();
        const double run_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const int64_t events = engine.events_processed() - warm_events;
        const double eps =
            run_s > 0 ? static_cast<double>(events) / run_s : 0.0;

        const auto r0 = std::chrono::steady_clock::now();
        const bool rb_ok = engine.rollback_and_redeploy(1);
        const double rb_ms =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - r0)
                .count() *
            1e3;

        points.push_back({nodes, eps, rb_ms});
        const std::string tag =
            "fleet.scale.n" + std::to_string(nodes);
        metrics.gauge(tag + ".events_per_sec").set(eps);
        metrics.gauge(tag + ".rollback_ms").set(rb_ms);

        table.add_row(
            {std::to_string(nodes), std::to_string(engine.shards()),
             std::to_string(events), TablePrinter::num(eps, 0),
             TablePrinter::num(
                 static_cast<double>(engine.approx_bytes()) / 1e6, 1),
             TablePrinter::num(rb_ms, 3)});
        if (!rb_ok) {
            std::printf("rollback failed at %lld nodes\n",
                        static_cast<long long>(nodes));
            verdict(false, "rollback_and_redeploy must succeed at "
                           "every fleet size");
            return 0;
        }
    }
    std::printf("%s", table.to_string().c_str());
    maybe_write_csv("fleet_scaling", table);
    metrics.gauge("fleet.scale.peak_rss_mb").set(peak_rss_mb());

    // Near-linear scaling: per-event cost at 1M nodes must stay
    // within 2x of the 10k-node rate (events/sec@1M >= 0.5x @10k).
    const auto at = [&](int64_t n) {
        for (const auto& p : points)
            if (p.nodes == n) return p;
        return SweepPoint{};
    };
    const double eps_10k = at(10000).events_per_sec;
    const double eps_1m = at(1000000).events_per_sec;
    std::printf("\nthroughput: 10k=%.0f ev/s, 1M=%.0f ev/s "
                "(ratio %.2f)\n",
                eps_10k, eps_1m,
                eps_10k > 0 ? eps_1m / eps_10k : 0.0);
    verdict(eps_1m >= 0.5 * eps_10k,
            "event throughput at 1M nodes stays within 2x of the "
            "per-event cost at 10k nodes (near-linear scaling)");

    // Flat rollback: O(1) in fleet size. Compare 1M against the 10-
    // node point with generous headroom for timer noise on sub-ms
    // operations.
    const double rb_small = at(10).rollback_ms;
    const double rb_large = at(1000000).rollback_ms;
    std::printf("rollback: 10 nodes=%.3f ms, 1M nodes=%.3f ms\n",
                rb_small, rb_large);
    verdict(rb_large <= rb_small * 50.0 + 5.0,
            "rollback latency is flat from 10 to 1M nodes (COW "
            "snapshot restore + O(shards) watermark repoint)");

    // --- Part 2: pooled valuable uploads (paper extension) ----------
    // The paper's node serves multiple sensors against one cloud;
    // deployments run many such nodes. When the cloud pools the
    // fleet's flagged uploads into each incremental update, every
    // node adapts from data its siblings flagged.
    std::printf("\npooled valuable uploads (full FleetSim)\n");
    const int kSimStages = 3;
    TablePrinter t2({"fleet size", "stage-1 mean acc",
                     "final mean acc", "final flag rate (node 0)"});
    std::vector<double> final_accs;
    for (size_t fleet_size : {1u, 3u}) {
        FleetConfig config;
        config.tiny.num_permutations = 8;
        config.update_epochs = 2;
        config.pretrain_epochs = 2;
        config.seed = 2018;
        config.node_severity_offset.assign(fleet_size, 0.0);
        for (size_t i = 0; i < fleet_size; ++i)
            config.node_severity_offset[i] =
                0.05 * static_cast<double>(i);
        FleetSim fleet(config);
        fleet.bootstrap(80, 0.2);
        double first = 0.0, last = 0.0, flag0 = 0.0;
        for (int s = 0; s < kSimStages; ++s) {
            const FleetStageReport report =
                fleet.run_stage(50, 0.25 + 0.05 * s);
            if (s == 0) first = report.mean_accuracy_after;
            last = report.mean_accuracy_after;
            flag0 = report.nodes[0].flag_rate;
        }
        final_accs.push_back(last);
        t2.add_row({std::to_string(fleet_size),
                    TablePrinter::num(first, 3),
                    TablePrinter::num(last, 3),
                    TablePrinter::num(flag0, 2)});
    }
    std::printf("%s", t2.to_string().c_str());
    maybe_write_csv("fleet_scaling_pooled", t2);
    verdict(final_accs.back() > final_accs.front(),
            "pooled valuable uploads let a multi-node fleet adapt "
            "faster than an isolated node on the same per-node data "
            "budget");
    return 0;
}
