/**
 * @file
 * Canonical serving scenarios shared by the bench, the example and
 * the tests (so "the three traffic mixes" means the same thing
 * everywhere — docs/serving.md, "Traffic mixes").
 *
 * Rates and deadlines are derived from the host's own capacity
 * (multiples of the jitter-free batch-1 service time and of the
 * max-batch sustainable rate), so the mixes keep their intended
 * character — bursty overload, sustained near-capacity load, mixed
 * diurnal traffic with co-running duties — under any host profile or
 * network descriptor.
 */
#pragma once

#include <string>
#include <vector>

#include "serving/runtime.h"

namespace insitu::serving {

/** Names of the canonical mixes, in sweep order. */
std::vector<std::string> scenario_names();

/**
 * Build the full serving configuration for one canonical mix.
 *
 * @param name one of scenario_names():
 *   - "interactive_burst": mostly tight-deadline traffic, calm load
 *     well inside batch-1 capacity, bursts several times beyond it —
 *     the batching-versus-deadline tradeoff case.
 *   - "bulk_heavy": loose deadlines at sustained near-max-batch
 *     capacity — the raw-throughput case (small static batches
 *     drown; large ones are optimal).
 *   - "diurnal_corun": all three deadline classes plus periodic
 *     co-running diagnosis and incremental weight updates — the
 *     full co-running story.
 * @param duration_s arrival horizon (load shape is horizon-free).
 * @param seed arrival/jitter seed; reports are a pure function of
 *        (name, duration_s, seed).
 *
 * The returned config uses the online planner with periodic
 * calibration; callers flip `planner.mode` / `planner.static_batch`
 * for the static baselines and leave everything else untouched so
 * comparisons are apples-to-apples.
 */
ServingConfig make_scenario(const std::string& name,
                            double duration_s, uint64_t seed);

/**
 * The gray-failure chaos scenario: "diurnal_corun" on a device that
 * thermal-throttles (peak 2.3x, [0.30, 0.80) of the horizon), rides
 * a jitter storm ([0.45, 0.70), +-35%) and transiently stalls (3% of
 * dispatches at 5x) — the mix check_degrade and the serving-chaos
 * bench run. Guarded-vs-unguarded comparisons flip `degrade`
 * and leave everything else untouched. Not part of scenario_names():
 * the canonical mixes stay fault-free.
 */
ServingConfig make_device_chaos(double duration_s, uint64_t seed);

} // namespace insitu::serving
