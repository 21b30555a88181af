/**
 * @file
 * Gray-failure degradation study (docs/serving.md, "Device gray
 * failures and the degradation ladder"; docs/robustness.md recovery
 * matrix).
 *
 * Sweeps the three device fault kinds — thermal throttle, jitter
 * storm, transient stalls — in isolation and combined, each served
 * twice on the identical scenario seed: once by the unguarded online
 * planner and once with the gray-failure detector plus degradation
 * ladder enabled. The table behind results/serving_degradation.md.
 *
 * The shape under test: under the combined chaos mix the ladder must
 * keep the guaranteed (non-best-effort) class's deadline-miss rate
 * strictly below the unguarded planner's, paying with best-effort
 * sheds — and a fault-free control row must show the detector never
 * tripping.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "exp_common.h"
#include "serving/scenarios.h"

using namespace insitu;
using namespace insitu::bench;
using namespace insitu::serving;

namespace {

/** One fault mode of the sweep: chaos config minus some faults. */
struct FaultMode {
    std::string name;
    bool throttle = false;
    bool storm = false;
    bool stall = false;
};

/** Build the scenario with only @p mode's device faults armed. */
ServingConfig
make_mode(const FaultMode& mode, double duration_s, uint64_t seed)
{
    ServingConfig cfg = make_device_chaos(duration_s, seed);
    if (!mode.throttle) cfg.device_faults.throttles.clear();
    if (!mode.storm) cfg.device_faults.jitter_storms.clear();
    if (!mode.stall) cfg.device_faults.transient_stall_prob = 0.0;
    return cfg;
}

} // namespace

int
main()
{
    banner("serving_chaos",
           "device gray failures vs the degradation ladder",
           "an in-situ device degrades in place — thermal throttling, "
           "jitter, stalls — and the runtime must keep guaranteed "
           "deadlines by shedding best-effort work, not fail evenly");

    const double duration_s = 30.0;
    const uint64_t seed = 11;
    const std::vector<FaultMode> modes = {
        {"fault-free", false, false, false},
        {"thermal-throttle", true, false, false},
        {"jitter-storm", false, true, false},
        {"transient-stall", false, false, true},
        {"combined", true, true, true},
    };

    TablePrinter table({"fault", "policy", "guar miss %",
                        "guar p99 (ms)", "total miss %", "max rung",
                        "shed", "recoveries"});
    bool combined_protects = false;
    bool combined_engaged = false;
    bool fault_free_quiet = false;
    for (const FaultMode& mode : modes) {
        ServingReport reps[2]; // [0]=unguarded, [1]=ladder
        for (int guarded = 0; guarded < 2; ++guarded) {
            ServingConfig cfg = make_mode(mode, duration_s, seed);
            cfg.degrade = guarded == 1;
            ServingRuntime runtime(std::move(cfg));
            reps[guarded] = runtime.run();
            const ServingReport& r = reps[guarded];
            const ClassReport& g = r.classes[0];
            table.add_row(
                {mode.name, guarded ? "ladder" : "unguarded",
                 TablePrinter::num(100.0 * g.miss_rate, 2),
                 TablePrinter::num(g.p99_latency_s * 1e3, 2),
                 TablePrinter::num(100.0 * r.total.miss_rate, 2),
                 std::to_string(r.degradation.max_rung),
                 std::to_string(r.total.shed_degraded),
                 std::to_string(r.degradation.recoveries)});
        }
        const ClassReport& u = reps[0].classes[0];
        const ClassReport& g = reps[1].classes[0];
        if (mode.name == "combined") {
            combined_protects = g.miss_rate < u.miss_rate;
            combined_engaged =
                reps[1].degradation.max_rung >= 2 &&
                reps[1].total.shed_degraded > 0;
            std::printf("combined chaos: device saw %lld throttled / "
                        "%lld storm / %lld stalled batches; ladder "
                        "peaked at rung %d with %lld transitions\n",
                        static_cast<long long>(
                            reps[1].degradation.throttled_batches),
                        static_cast<long long>(
                            reps[1].degradation.storm_batches),
                        static_cast<long long>(
                            reps[1].degradation.stalled_batches),
                        reps[1].degradation.max_rung,
                        static_cast<long long>(
                            reps[1].degradation.transitions));
        }
        if (mode.name == "fault-free")
            fault_free_quiet =
                reps[1].degradation.transitions == 0 &&
                reps[1].degradation.max_rung == 0 &&
                reps[1].total.shed_degraded == 0;
    }
    std::printf("%s", table.to_string().c_str());
    maybe_write_csv("serving_degradation", table);

    verdict(fault_free_quiet && combined_protects && combined_engaged,
            "detector silent fault-free; under combined chaos the "
            "ladder engages (rung >= 2, best-effort sheds) and keeps "
            "the guaranteed class's miss rate strictly below the "
            "unguarded planner's");
    return fault_free_quiet && combined_protects && combined_engaged
               ? 0
               : 1;
}
