/**
 * @file
 * Async co-running serving on one edge node (docs/serving.md).
 *
 * Default mode: a real InsituNode serves the "diurnal_corun" mix —
 * bursty arrivals in three deadline classes, a co-running diagnosis
 * batch, incremental weight updates swapped in through the node's
 * double buffer, and the online batch planner self-calibrating its
 * Eq 3-8 time model along the way. The run transcript and report are
 * a pure function of the seed (pinned by the check_serving ctest).
 *
 * `--acceptance`: smoke sweep of the three canonical mixes comparing
 * the online planner against static batch sizes; prints one verdict
 * line per mix and exits non-zero unless the planner's deadline-miss
 * rate is <= every static policy on every mix.
 *
 * `--chaos`: the gray-failure story (docs/serving.md, "Device gray
 * failures and the degradation ladder"). First a fault-free sanity
 * pair — the guarded runtime's transcript must be byte-identical to
 * the unguarded one, with zero health transitions — then the
 * device-chaos scenario (thermal throttle + jitter storm + transient
 * stalls) guarded vs unguarded: the verdict demands the ladder keep
 * the guaranteed class's deadline-miss rate strictly below the
 * unguarded planner's. Byte-diffed across INSITU_THREADS by the
 * check_degrade ctest.
 *
 * Build: cmake --build build --target serving_demo
 * Run:   ./build/examples/serving_demo [--acceptance|--chaos]
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cloud/update_service.h"
#include "iot/node.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serving/scenarios.h"

using namespace insitu;
using namespace insitu::serving;

namespace {

void
print_report(const ServingReport& rep)
{
    std::printf("%-12s %8s %7s %6s %6s %9s %9s %7s\n", "class",
                "arrived", "served", "late", "lost", "p50(ms)",
                "p99(ms)", "miss%");
    auto row = [](const ClassReport& c) {
        std::printf("%-12s %8lld %7lld %6lld %6lld %9.2f %9.2f "
                    "%6.2f%%\n",
                    c.name.c_str(),
                    static_cast<long long>(c.arrived),
                    static_cast<long long>(c.served),
                    static_cast<long long>(c.served_late),
                    static_cast<long long>(c.dropped_capacity +
                                           c.shed_expired +
                                           c.shed_degraded),
                    c.p50_latency_s * 1e3, c.p99_latency_s * 1e3,
                    100.0 * c.miss_rate);
    };
    for (const auto& c : rep.classes) row(c);
    row(rep.total);
    std::printf("batches=%lld mean_batch=%.2f drain=%lld "
                "swaps=%lld/%lld (mid-batch stages=%lld, stall=%.3fs, "
                "torn=%s)\n",
                static_cast<long long>(rep.batches),
                rep.mean_batch_size,
                static_cast<long long>(rep.drain_batches),
                static_cast<long long>(rep.swaps_committed),
                static_cast<long long>(rep.updates_staged),
                static_cast<long long>(rep.mid_batch_stages),
                rep.swap_stall_s, rep.swap_torn ? "YES" : "no");
    std::printf("calibration: fits=%lld scale=%.4f overhead=%.6fs "
                "mean|residual|=%.4f\n",
                static_cast<long long>(rep.calibration_fits),
                rep.final_calibration.time_scale,
                rep.final_calibration.overhead_s,
                rep.mean_abs_residual);
}

/** Default mode: the full co-running story on a real node. */
int
run_demo()
{
    std::printf("== async co-running serving on an edge node ==\n");

    // Stand the node up the usual way: cloud service owns the
    // permutation set, deploys both networks onto the node.
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 21);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    21);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());

    ServingConfig cfg = make_scenario("diurnal_corun", 25.0, 21);
    cfg.transcript = TranscriptLevel::kSummary;
    cfg.real_inference_every = 8; // ground every 8th batch in TinyNet

    ServingRuntime runtime(cfg, &node);
    const ServingReport rep = runtime.run();

    std::printf("--- transcript (summary level) ---\n%s",
                rep.transcript.c_str());
    std::printf("--- report ---\n");
    print_report(rep);
    std::printf("model version after run: %llu\n",
                static_cast<unsigned long long>(
                    node.model_version()));
    return rep.swap_torn ? 1 : 0;
}

/** --acceptance: planner vs statics on every canonical mix. */
int
run_acceptance()
{
    const std::vector<int64_t> statics = {1, 4, 16};
    const double duration_s = 12.0;
    const uint64_t seed = 7;
    bool pass = true;

    std::printf("== serving acceptance sweep (smoke) ==\n");
    for (const std::string& mix : scenario_names()) {
        auto run_policy = [&](PlannerMode mode, int64_t static_b) {
            ServingConfig cfg = make_scenario(mix, duration_s, seed);
            cfg.planner.mode = mode;
            cfg.planner.static_batch = static_b;
            ServingRuntime runtime(cfg);
            return runtime.run();
        };
        const ServingReport online =
            run_policy(PlannerMode::kOnline, 0);
        std::printf("%-18s %-10s miss=%6.2f%% p50=%8.2fms "
                    "p99=%8.2fms mean_batch=%5.2f\n",
                    mix.c_str(), "planner",
                    100.0 * online.total.miss_rate,
                    online.total.p50_latency_s * 1e3,
                    online.total.p99_latency_s * 1e3,
                    online.mean_batch_size);
        bool mix_pass = true;
        for (int64_t b : statics) {
            const ServingReport st =
                run_policy(PlannerMode::kStatic, b);
            const bool beat =
                online.total.miss_rate <= st.total.miss_rate;
            mix_pass = mix_pass && beat;
            std::printf("%-18s static=%-3lld miss=%6.2f%% "
                        "p50=%8.2fms p99=%8.2fms mean_batch=%5.2f%s\n",
                        mix.c_str(), static_cast<long long>(b),
                        100.0 * st.total.miss_rate,
                        st.total.p50_latency_s * 1e3,
                        st.total.p99_latency_s * 1e3,
                        st.mean_batch_size,
                        beat ? "" : "  <- beats planner");
        }
        std::printf("%-18s acceptance: %s\n", mix.c_str(),
                    mix_pass ? "PASS" : "FAIL");
        pass = pass && mix_pass;
    }
    std::printf("overall acceptance: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}

/** --chaos: device gray failures, guarded vs unguarded. */
int
run_chaos()
{
    const double duration_s = 30.0;
    const uint64_t seed = 11;

    auto run_cfg = [](ServingConfig cfg) {
        ServingRuntime runtime(std::move(cfg));
        return runtime.run();
    };
    auto degradation_row = [](const char* tag,
                              const ServingReport& rep) {
        std::printf("%-10s health=%s max_rung=%d transitions=%lld "
                    "shed=%lld diag_skipped=%lld calib_skipped=%lld "
                    "forced_drain=%lld recoveries=%lld\n",
                    tag, rep.degradation.final_state.c_str(),
                    rep.degradation.max_rung,
                    static_cast<long long>(
                        rep.degradation.transitions),
                    static_cast<long long>(
                        rep.total.shed_degraded),
                    static_cast<long long>(
                        rep.degradation.diag_skipped),
                    static_cast<long long>(
                        rep.degradation.calib_skipped),
                    static_cast<long long>(
                        rep.degradation.forced_drain),
                    static_cast<long long>(
                        rep.degradation.recoveries));
    };

    std::printf("== device gray failures vs the degradation "
                "ladder ==\n");

    // -- 1. fault-free sanity: the detector must never trip, and the
    // guarded transcript must match the unguarded one byte for byte.
    ServingConfig base = make_scenario("diurnal_corun", duration_s,
                                       seed);
    base.transcript = TranscriptLevel::kSummary;
    ServingConfig unguarded_base = base;
    unguarded_base.degrade = false;
    const ServingReport ff_guarded = run_cfg(base);
    const ServingReport ff_unguarded = run_cfg(unguarded_base);
    const bool fault_free_ok =
        ff_guarded.transcript == ff_unguarded.transcript &&
        ff_guarded.degradation.transitions == 0 &&
        ff_guarded.degradation.max_rung == 0 &&
        ff_guarded.total.shed_degraded == 0;
    std::printf("fault-free: transitions=%lld max_rung=%d "
                "transcripts %s -> %s\n",
                static_cast<long long>(
                    ff_guarded.degradation.transitions),
                ff_guarded.degradation.max_rung,
                ff_guarded.transcript == ff_unguarded.transcript
                    ? "identical"
                    : "DIFFER",
                fault_free_ok ? "ok" : "FAIL");

    // -- 2. chaos: throttle + jitter storm + stalls, guarded vs
    // unguarded on the identical scenario seed.
    ServingConfig guarded = make_device_chaos(duration_s, seed);
    guarded.transcript = TranscriptLevel::kSummary;
    // INSITU_FLIGHT_DUMP=<path>: arm the guarded run's flight
    // recorder (dumped when the ladder reaches rung >= 3 or forces a
    // drain); the check_slo ctest byte-diffs the dump across thread
    // widths.
    if (const char* fp = std::getenv("INSITU_FLIGHT_DUMP");
        fp != nullptr && *fp != '\0')
        guarded.flight_dump_path = fp;
    ServingConfig unguarded = guarded;
    unguarded.degrade = false;
    unguarded.flight_dump_path.clear(); // the guarded run owns it
    const ServingReport chaos_guarded = run_cfg(guarded);
    const ServingReport chaos_unguarded = run_cfg(unguarded);

    std::printf("--- guarded chaos transcript (summary level) "
                "---\n%s",
                chaos_guarded.transcript.c_str());
    std::printf("--- unguarded (planner only) ---\n");
    print_report(chaos_unguarded);
    degradation_row("unguarded", chaos_unguarded);
    std::printf("--- guarded (degradation ladder) ---\n");
    print_report(chaos_guarded);
    degradation_row("guarded", chaos_guarded);

    // The guaranteed class is the mix's non-best-effort one
    // (interactive); the ladder must protect it strictly.
    const ClassReport& g = chaos_guarded.classes[0];
    const ClassReport& u = chaos_unguarded.classes[0];
    const bool protects = g.miss_rate < u.miss_rate;
    const bool engaged = chaos_guarded.degradation.max_rung >= 2 &&
                         chaos_guarded.total.shed_degraded > 0;
    std::printf("guaranteed class '%s': guarded miss=%.2f%% "
                "p99=%.2fms vs unguarded miss=%.2f%% p99=%.2fms "
                "(%s)\n",
                g.name.c_str(), 100.0 * g.miss_rate,
                g.p99_latency_s * 1e3, 100.0 * u.miss_rate,
                u.p99_latency_s * 1e3,
                protects ? "strictly better" : "NOT better");

    std::printf("slo: alerts=%lld flight_dumps=%lld (guarded chaos)\n",
                static_cast<long long>(chaos_guarded.slo_alerts),
                static_cast<long long>(chaos_guarded.flight_dumps));

    // INSITU_TRACE_CHROME=<path>: export the whole mode's trace
    // (spans, instants, flow chains) as Chrome trace_event JSON —
    // deterministic, so the check_slo ctest byte-diffs it across widths.
    if (const char* tp = std::getenv("INSITU_TRACE_CHROME");
        tp != nullptr && *tp != '\0') {
        if (!obs::export_chrome_trace_file(tp)) {
            std::printf("trace export FAILED: %s\n", tp);
            return 1;
        }
        std::printf("trace exported\n");
    }

    const bool pass = fault_free_ok && protects && engaged;
    std::printf("chaos acceptance: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    // Simulated telemetry time: spans and instants carry the event
    // loop's timeline, and output is byte-stable across hosts.
    obs::TelemetryClock::global().enable_simulated(0.0);
    if (const char* tp = std::getenv("INSITU_TRACE_CHROME");
        tp != nullptr && *tp != '\0')
        obs::TraceRecorder::global().set_enabled(true);
    if (argc > 1 && std::strcmp(argv[1], "--acceptance") == 0)
        return run_acceptance();
    if (argc > 1 && std::strcmp(argv[1], "--chaos") == 0)
        return run_chaos();
    return run_demo();
}
