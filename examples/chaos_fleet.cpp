/**
 * @file
 * Chaos-tested fleet: the In-situ loop under realistic failure,
 * with and without the self-healing supervision layer.
 *
 * A three-node fleet runs multi-stage incremental learning while a
 * seeded FaultPlan throws everything a field deployment sees at it:
 * 20% payload loss and 5% corruption on every uplink, a flapping link
 * that silently eats transmissions for two stage windows, one node
 * crash-looping (and rebooting from its checkpoint), and one stage
 * whose upload labels arrive poisoned — with the cloud's holdout gate
 * deliberately disabled, so only a canary rollout can catch it.
 *
 * The same scenario runs twice: unsupervised (PR 1's local defenses
 * only) and supervised (circuit breakers, crash-loop quarantine,
 * canary rollout). The run prints a per-stage resilience report and
 * the recovered accuracy / saved radio energy, then replays the
 * supervised run from the same seed to demonstrate the whole
 * scenario — supervision decisions included — is deterministic.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "iot/fleet.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/trace.h"

using namespace insitu;

namespace {

/** One stage's resilience report as a printable line. */
std::string
stage_line(const FleetStageReport& r)
{
    char buf[320];
    std::string flags;
    if (r.crashed_nodes > 0)
        flags += " crash x" + std::to_string(r.crashed_nodes);
    if (r.poisoned) flags += " POISONED";
    if (r.rolled_back) {
        char rejected[64];
        std::snprintf(rejected, sizeof(rejected),
                      " -> REJECTED %.2f, kept %.2f",
                      r.holdout_trained, r.holdout_after);
        flags += rejected;
    }
    for (int n : r.newly_quarantined)
        flags += " QUARANTINE node " + std::to_string(n);
    for (int n : r.readmitted)
        flags += " readmit node " + std::to_string(n);
    if (r.canary_started) {
        flags += " canary ->";
        for (int n : r.canary_nodes)
            flags += " node " + std::to_string(n);
    }
    if (r.canary_promoted) flags += " canary PROMOTED";
    if (r.canary_rolled_back) flags += " canary ROLLED BACK";
    if (!r.update_ran) flags += " (no update)";
    std::snprintf(buf, sizeof(buf),
                  "stage %d: delivered %3lld, backlog %3lld, "
                  "retx %3lld, gate %.2f -> %.2f, mean acc %.2f%s",
                  r.stage, static_cast<long long>(r.pooled_uploads),
                  static_cast<long long>(r.straggler_backlog),
                  static_cast<long long>(r.retransmits),
                  r.holdout_before, r.holdout_trained,
                  r.mean_accuracy_after, flags.c_str());
    return buf;
}

/** What one whole run came to. */
struct RunOutcome {
    std::vector<std::string> lines;
    double radio_joules = 0;
    int64_t delivered = 0;
    /// Fleet accuracy right after the poisoned stage deployed — the
    /// stage where fleet-wide rollout and canary rollout differ most.
    double post_poison_accuracy = 0;
    size_t nodes = 0;
    /// Nodes the poisoned stage's update reached: its canary subset,
    /// or the whole fleet when no canary ran.
    size_t poison_reached = 0;

    double joules_per_image() const
    {
        return delivered ? radio_joules /
                               static_cast<double>(delivered)
                         : 0.0;
    }
};

/** Run the full scenario, returning the per-stage report lines. */
RunOutcome
run_scenario(bool supervised, bool print)
{
    FleetSim fleet(chaos_fleet_config(supervised));
    const double boot = fleet.bootstrap(90, 0.2);
    if (print) std::printf("bootstrap accuracy: %.2f\n", boot);

    RunOutcome out;
    out.nodes = fleet.size();
    for (int stage = 0; stage < 5; ++stage) {
        const FleetStageReport r =
            fleet.run_stage(45, 0.25 + 0.03 * stage);
        out.lines.push_back(stage_line(r));
        if (r.poisoned) {
            out.post_poison_accuracy = r.mean_accuracy_after;
            out.poison_reached =
                r.canary_started ? r.canary_nodes.size() : out.nodes;
        }
        if (print) std::printf("%s\n", out.lines.back().c_str());
    }

    int64_t retx = 0, breaker_opens = 0;
    double open_wait_s = 0;
    for (size_t i = 0; i < fleet.size(); ++i) {
        const UplinkStats& s = fleet.uplink(i).stats();
        out.radio_joules += s.energy_j;
        out.delivered += s.delivered;
        retx += s.retransmits;
        breaker_opens += s.breaker_opens;
        open_wait_s += s.breaker_open_wait_s;
    }
    if (print) {
        const FaultLog& log = fleet.injector().log();
        std::printf("faults injected: %lld lost, %lld flapped, "
                    "%lld corrupted, %lld crashes, %lld poisoned\n",
                    static_cast<long long>(log.payloads_lost),
                    static_cast<long long>(log.flapping_failures),
                    static_cast<long long>(log.payloads_corrupted),
                    static_cast<long long>(log.crashes),
                    static_cast<long long>(log.poisoned_updates));
        std::printf("uplinks: %lld retransmits, %.3f J radio energy",
                    static_cast<long long>(retx), out.radio_joules);
        if (supervised)
            std::printf(", %lld breaker opens, %.0f s fast-failed",
                        static_cast<long long>(breaker_opens),
                        open_wait_s);
        std::printf("\nregistry: %zu versions\n",
                    fleet.cloud().registry().size());
    }
    return out;
}

} // namespace

int
main()
{
    // INSITU_TELEMETRY_JSONL=<path> turns on full telemetry for the
    // whole scenario: the clock switches to simulated time (stamped by
    // FleetSim's stage windows) and spans are recorded, so the
    // exported file is a pure function of the scenario — byte-
    // identical at any INSITU_THREADS (pinned by the check_obs ctest).
    const char* telemetry_path =
        std::getenv("INSITU_TELEMETRY_JSONL");
    const bool telemetry =
        telemetry_path != nullptr && *telemetry_path != '\0';
    if (telemetry) {
        obs::TelemetryClock::global().enable_simulated(0.0);
        obs::TraceRecorder::global().set_enabled(true);
    }

    std::printf("== chaos fleet: flapping link, crash-looping node, "
                "poisoned update (gate disabled) ==\n");
    std::printf("\n-- unsupervised (local defenses only) --\n");
    const RunOutcome naive = run_scenario(false, true);

    std::printf("\n-- supervised (breakers + quarantine + canary) "
                "--\n");
    const RunOutcome supervised = run_scenario(true, true);

    std::printf("\n== supervised vs unsupervised, same FaultPlan ==\n");
    // The two fleets flag (and therefore deliver) different image
    // counts once their models diverge, so the fair radio metric is
    // energy per delivered image.
    std::printf("radio energy: %.4f J/image (%.3f J / %lld img) vs "
                "%.4f J/image (%.3f J / %lld img) — %.0f%% saved\n",
                supervised.joules_per_image(),
                supervised.radio_joules,
                static_cast<long long>(supervised.delivered),
                naive.joules_per_image(), naive.radio_joules,
                static_cast<long long>(naive.delivered),
                100.0 * (1.0 - supervised.joules_per_image() /
                                   naive.joules_per_image()));
    std::printf("accuracy after the poisoned stage deployed: "
                "%.2f vs %.2f (%+.2f recovered — the canary kept "
                "the poison off %zu of %zu nodes)\n",
                supervised.post_poison_accuracy,
                naive.post_poison_accuracy,
                supervised.post_poison_accuracy -
                    naive.post_poison_accuracy,
                supervised.nodes - supervised.poison_reached,
                supervised.nodes);

    std::printf("\nreplaying the supervised scenario from the same "
                "seed...\n");
    const RunOutcome replay = run_scenario(true, false);
    const bool identical = supervised.lines == replay.lines;
    std::printf("replay bit-identical: %s\n",
                identical ? "yes" : "NO (determinism broken)");

    if (telemetry) {
        if (!obs::export_jsonl_file(telemetry_path)) {
            std::printf("telemetry export FAILED: %s\n",
                        telemetry_path);
            return 1;
        }
        std::printf("telemetry written to %s\n", telemetry_path);
    }
    return identical ? 0 : 1;
}
