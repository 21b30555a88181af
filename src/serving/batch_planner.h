/**
 * @file
 * Online batch planner: the Eq 3-8 time/utilization model, consulted
 * per dispatch.
 *
 * At every batch boundary the planner sees the EDF-ordered queue and
 * picks the batch size for the next dispatch:
 *
 * - **Deadline mode** (front deadline still reachable): the largest
 *   EDF prefix b whose predicted completion — calibrated latency
 *   (GpuModel::predicted_batch_latency) times the Fig. 16 co-running
 *   slowdown, times a safety margin — still meets the *front*
 *   request's deadline. Because a batch is an EDF prefix, the front
 *   deadline is the binding one for every member; bigger b amortizes
 *   the per-batch overhead and raises Eq 3 utilization, so the
 *   largest feasible prefix is the throughput-best deadline-safe
 *   choice.
 * - **Drain mode** (even b = 1 would miss): maximize predicted
 *   throughput b / time(b) to burn the backlog down fastest — the
 *   misses already happened; what matters now is how quickly the
 *   queue returns to deadline-feasible territory.
 *
 * The static policy (baseline in every comparison) ignores deadlines
 * and the model entirely: b = min(static_batch, queue depth).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "hw/gpu_model.h"

namespace insitu::serving {

/** Batch policy selector. */
enum class PlannerMode { kStatic, kOnline };

const char* planner_mode_name(PlannerMode mode);

struct PlannerConfig {
    PlannerMode mode = PlannerMode::kOnline;
    int64_t static_batch = 8; ///< kStatic: the fixed batch size
};

/// Batch-size cap for both policies.
inline constexpr int64_t kMaxBatch = 32;

/// Predicted times are multiplied by this before the deadline check;
/// > 1 hedges against host jitter the calibration's mean fit cannot
/// capture.
inline constexpr double kPlannerSafety = 1.05;

/** One dispatch decision. */
struct BatchDecision {
    int64_t batch = 0;        ///< 0 when the queue was empty
    double predicted_s = 0;   ///< calibrated+corun prediction for it
    bool deadline_feasible = true; ///< false = drain mode
};

/**
 * Per-dispatch adjustments the degradation ladder layers on top of
 * the static PlannerConfig (serving/degrade.h). Defaults are the
 * identity, so an unguarded caller plans exactly as before.
 */
struct PlanOverrides {
    /// Multiplies kPlannerSafety (rung 1+: hedge against a
    /// device whose residuals no longer match the calibration).
    double safety_mult = 1.0;
    /// Skip the deadline-feasibility search and go straight to drain
    /// mode's throughput-max batch (rung 4: the predictions cannot be
    /// trusted to gate deadlines at all).
    bool force_drain = false;
};

/** Stateless policy object; all inputs arrive per call. */
class BatchPlanner {
  public:
    explicit BatchPlanner(PlannerConfig config) : config_(config) {}

    /**
     * Decide the next dispatch at time @p now_s.
     *
     * @param gpu the planner's (possibly calibrated) device model.
     * @param net analytical descriptor of the inference network.
     * @param edf_deadlines absolute deadlines of the EDF queue
     *        prefix, ascending; at most kMaxBatch entries are read.
     *        An empty list yields the explicit empty decision
     *        (batch = 0) — there is nothing to dispatch.
     * @param diagnosis_ops outstanding ops of a co-running diagnosis
     *        batch (0 = no co-runner); fed to corun_slowdown so the
     *        prediction accounts for the interference.
     * @param overrides the degradation ladder's per-dispatch
     *        adjustments (identity by default).
     */
    BatchDecision plan(const GpuModel& gpu, const NetworkDesc& net,
                       double now_s,
                       const std::vector<double>& edf_deadlines,
                       double diagnosis_ops,
                       const PlanOverrides& overrides = {}) const;

  private:
    PlannerConfig config_;
};

} // namespace insitu::serving
