/**
 * @file
 * The async co-running serving runtime (docs/serving.md).
 *
 * An event-driven simulation of one edge node serving an open-loop
 * inference stream while its other duties co-run:
 *
 * - **Inference stream**: bursty arrivals (serving/traffic.h) land in
 *   the EDF admission queue; whenever the device goes idle the batch
 *   planner (serving/batch_planner.h) forms the next dispatch and the
 *   device truth (hw/device_truth.h) executes it, under whatever
 *   device faults the DeviceFaultPlan arms (apply_device_faults).
 * - **Diagnosis ticks**: a periodic diagnosis batch co-runs on the
 *   device; inference batches dispatched inside its window are
 *   inflated by the Fig. 16 interference model — and the planner
 *   knows it, because it consults the same model online.
 * - **Incremental updates**: the cloud loop's weight updates arrive
 *   on their own cadence and are *staged* into the node's
 *   double-buffer (InsituNode::stage_deployment); the runtime commits
 *   them only at batch boundaries, so an in-flight batch is never
 *   torn and the stream never stalls.
 * - **Calibration ticks**: every 2 simulated seconds the fit of
 *   serving/calibrate.h re-runs over the healthy batches of the run's
 *   batch ledger, updating the planner's GpuModel constants in place
 *   — the planner self-tunes to the host it is actually running on.
 *
 * The run keeps one ledger: every Request stamped with when it left
 * the queue, when it left the runtime and how, plus one BatchRecord
 * per dispatch. The report's per-class rows, the `serving.*` metrics
 * (published once, at run end) and the calibration points are folds
 * over it, and tests replay it (tests/test_serving_replay.cc).
 * Transcript lines, trace spans and SLO feeds stay at their events.
 *
 * Determinism contract: the event loop is serial, every random draw
 * comes from seeded streams owned by the scenario, timestamps come
 * from the simulated timeline, and ties between event kinds resolve
 * by a fixed priority — so a run's transcript, report and telemetry
 * are byte-identical at any INSITU_THREADS width (pinned by the
 * `check_serving` ctest).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/device_truth.h"
#include "hw/gpu_model.h"
#include "hw/spec.h"
#include "obs/metrics.h"
#include "serving/batch_planner.h"
#include "serving/degrade.h"
#include "serving/queue.h"
#include "serving/traffic.h"
#include "util/rng.h"

namespace insitu {
class InsituNode;
}

namespace insitu::serving {

/** Co-running duties riding along the inference stream. */
struct CorunConfig {
    /// Period of the co-running diagnosis batch (0 = no co-runner).
    double diagnosis_period_s = 0;
    /// Period of incremental weight updates from the cloud loop
    /// (0 = none). Updates are staged at arrival and committed at
    /// the next batch boundary.
    double update_period_s = 0;
};

/**
 * A thermal-throttle episode: inside [from_s, to_s) the device's
 * batch times are multiplied by a slowdown that ramps linearly from 1
 * at from_s up to peak_slowdown over ramp_s seconds, then holds — the
 * way a passively cooled edge GPU heats up and clocks down under
 * sustained load (perf4sight's modeled-vs-measured gap). A pure
 * function of time: no RNG draw.
 */
struct ThrottleWindow {
    double from_s = 0;
    double to_s = 0;
    double peak_slowdown = 1.5; ///< multiplicative, >= 1
    double ramp_s = 5.0;        ///< seconds to reach the peak (0 = step)
};

/**
 * A jitter storm: inside [from_s, to_s) every batch execution gains
 * an extra ±jitter_frac uniform multiplicative jitter on top of the
 * device's baseline jitter. Storms do not shift the mean — they widen
 * the spread, which is exactly what poisons a least-squares
 * calibration fit.
 */
struct JitterStormWindow {
    double from_s = 0;
    double to_s = 0;
    double jitter_frac = 0.3; ///< extra uniform jitter in [0, 1)
};

/**
 * The serving host's gray failures: thermal throttles, jitter storms
 * and transient stalls (docs/serving.md). The default plan arms
 * nothing. Its stochastic decisions draw from one private stream,
 * stream(), so arming a device fault never perturbs traffic or the
 * device's own jitter replay.
 */
struct DeviceFaultPlan {
    std::vector<ThrottleWindow> throttles;
    std::vector<JitterStormWindow> jitter_storms;
    /// Probability one dispatch stalls, taking transient_stall_mult x
    /// its fault-free time.
    double transient_stall_prob = 0.0;
    /// Slowdown of a stalled dispatch (>= 1).
    double transient_stall_mult = 4.0;
    /// Seed of the device-fault stream.
    uint64_t seed = 0xFA17ULL;

    /** The device-fault stream (seeded seed ^ 0xDE71CE). */
    Rng stream() const { return Rng(seed ^ 0xDE71CEULL); }

    /**
     * Thermal-throttle slowdown at time @p t: the largest ramped
     * factor over the windows covering @p t, or 1 when none does.
     */
    double throttle_factor(double t) const;

    /**
     * Extra jitter fraction of the storm covering @p t (largest when
     * windows overlap), or 0 when the device is calm.
     */
    double storm_jitter_frac(double t) const;

    /** Fatal-checks probabilities, multipliers and window order.
     * Returns *this for chaining. */
    const DeviceFaultPlan& validated() const;
};

/** Transcript verbosity. */
enum class TranscriptLevel {
    kOff,     ///< no transcript
    kSummary, ///< batches, swaps, calibration, stage summaries
    kFull     ///< + every arrival/drop/shed
};

/**
 * Everything configurable about one serving run. The device is the
 * paper's TX1 serving AlexNet (tx1_spec(), alexnet_desc(); Figs 11
 * and 16); the co-running diagnosis batch runs
 * diagnosis_desc(alexnet_desc()).
 */
struct ServingConfig {
    TrafficMix mix;
    PlannerConfig planner;
    CorunConfig corun;
    TranscriptLevel transcript = TranscriptLevel::kOff;
    /// With a node attached: actually run InsituNode inference on
    /// every Nth dispatched batch (0 = never). Timing always comes
    /// from the device truth; this grounds the stream in the real
    /// substrate and tallies the nn.* metrics. The payloads are
    /// SynthConfig{} images, so the node's networks must match it.
    int64_t real_inference_every = 0;
    /// The device's gray failures. The default plan arms nothing and
    /// consumes no device draws.
    DeviceFaultPlan device_faults;
    /// The gray-failure detector and degradation ladder
    /// (serving/degrade.h); false is the unguarded baseline every
    /// ladder comparison runs against.
    bool degrade = true;
    /// When non-empty: dump the runtime's flight-recorder ring
    /// through a SnapshotStore at this path whenever the ladder
    /// reaches rung >= 3 or forces a drain — the chaos black box
    /// (`check_slo` byte-diffs it across thread widths).
    std::string flight_dump_path;
};

/** Outcome tallies for one class (or the total row). */
struct ClassReport {
    std::string name;
    int64_t arrived = 0;
    int64_t served = 0;           ///< completed (late ones included)
    int64_t served_late = 0;      ///< completed after their deadline
    int64_t dropped_capacity = 0; ///< rejected at a full queue
    int64_t shed_expired = 0;     ///< dropped as already expired
    int64_t shed_degraded = 0;    ///< refused by the degradation ladder
    double p50_latency_s = 0;     ///< over served requests
    double p99_latency_s = 0;
    /// Deadline misses (late + dropped + shed) / arrived.
    double miss_rate = 0;

    int64_t
    missed() const
    {
        return served_late + dropped_capacity + shed_expired +
               shed_degraded;
    }
};

/** What the gray-failure detector and degradation ladder did. */
struct DegradationReport {
    std::string final_state = "healthy";
    double final_ewma = 0;        ///< residual EWMA at run end
    int64_t transitions = 0;      ///< health-state changes
    int64_t rung_changes = 0;     ///< ladder rung moves (both ways)
    int max_rung = 0;             ///< deepest rung reached
    int64_t safety_batches = 0;   ///< dispatches planned at rung >= 1
    int64_t diag_skipped = 0;     ///< co-run windows skipped (rung >= 3)
    int64_t calib_skipped = 0;    ///< periodic fits suspended while sick
    int64_t forced_drain = 0;     ///< dispatches forced to drain (rung 4)
    int64_t probations = 0;       ///< probation periods entered
    int64_t recoveries = 0;       ///< probations passed (refit + healthy)
    // What the device actually did (tallied by apply_device_faults):
    int64_t throttled_batches = 0;
    int64_t storm_batches = 0;
    int64_t stalled_batches = 0;
};

/** Everything one run produces. */
struct ServingReport {
    std::vector<ClassReport> classes; ///< one per mix class
    ClassReport total;                ///< aggregated, name "total"

    /// The ledger: every arrival, stamped with its fate, in id order.
    std::vector<Request> requests;
    /// The ledger: every dispatched batch, in dispatch order.
    std::vector<BatchRecord> batch_records;

    int64_t batches = 0;
    double mean_batch_size = 0;
    int64_t drain_batches = 0; ///< dispatched deadline-infeasible

    int64_t updates_staged = 0;
    int64_t mid_batch_stages = 0; ///< updates that arrived in flight
    int64_t swaps_committed = 0;
    /// Device idle time attributable to weight swaps. The
    /// double-buffer protocol guarantees 0; reported so tests can
    /// pin it.
    double swap_stall_s = 0;
    /// True if any batch observed a version change between its start
    /// and completion. The protocol guarantees false.
    bool swap_torn = false;

    int64_t slo_alerts = 0;  ///< burn-rate alert raise edges
    int64_t flight_dumps = 0;///< flight-recorder rings persisted

    int64_t calibration_fits = 0;
    GpuCalibration final_calibration;
    /// Gray-failure detector + degradation ladder outcome.
    DegradationReport degradation;
    /// Mean |relative residual| of the measured operating points
    /// against the final calibrated model (0 when never calibrated).
    double mean_abs_residual = 0;

    double duration_s = 0; ///< configured arrival horizon
    double makespan_s = 0; ///< last batch completion
    std::string transcript;
};

/**
 * The serving host's hidden constants for a mix seeded @p seed: the
 * DeviceTruthConfig defaults, jitter seeded seed ^ 0x105E41. The
 * truth the planner's calibration loop has to recover.
 */
DeviceTruthConfig serving_host(uint64_t seed);

/**
 * The device-fault seam: @p seconds, a batch time the device truth
 * measured at simulation time @p now_s, scaled by @p plan's
 * thermal-throttle slowdown, jitter-storm factor and transient stall,
 * in that order. A storm draws one uniform from @p stream and a
 * non-zero stall probability one Bernoulli; a calm instant and a zero
 * stall probability draw nothing and leave @p seconds exact. Each
 * fault that fires is tallied in @p tally and in its
 * `faults.injected.<kind>` counter. The runtime calls it after the
 * device's own jitter draw, so arming faults never shifts the
 * fault-free replay.
 */
double apply_device_faults(const DeviceFaultPlan& plan, Rng& stream,
                           DegradationReport& tally, double seconds,
                           double now_s);

/** One full serving scenario, runnable once. */
class ServingRuntime {
  public:
    /**
     * @param node optional edge node: enables the real double-buffer
     *        swap path (stage_deployment/commit_staged_deployment)
     *        and, with real_inference_every > 0, real inference on
     *        dispatched batches. Without a node the runtime tracks
     *        versions itself (benches use this: same protocol, no
     *        weight copies).
     */
    explicit ServingRuntime(ServingConfig config,
                            InsituNode* node = nullptr);
    ~ServingRuntime();

    /** Execute the scenario. Call exactly once per runtime. */
    ServingReport run();

    /** The run's private metrics: its `serving.request.latency_s`
     * histogram, isolated per run, after run(). */
    const obs::MetricsRegistry& local_metrics() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace insitu::serving
