/**
 * @file
 * insitu::Framework — the top-level public API of the library.
 *
 * One object wires together everything a deployment needs: the
 * synthetic (or user-supplied) data pipeline, the cloud update
 * service, the weight-shared edge node, the working-mode planners and
 * the device models. Examples and downstream users should start here;
 * the individual modules remain usable à la carte.
 */
#pragma once

#include "analytics/planner.h"
#include "data/stream.h"
#include "iot/system.h"

namespace insitu {

/** Everything configurable about a Framework instance. */
struct FrameworkConfig {
    TinyConfig tiny;
    UpdatePolicy update;
    int pretrain_epochs = 3;
    /// Latency the end user demands from the inference task.
    double latency_requirement_s = 0.1;
    /// Whether inference must be available 24/7 (mode selection).
    bool inference_always_on = false;
    uint64_t seed = 7;
};

/** One step of the autonomous loop, as seen by the application. */
struct LoopReport {
    NodeStageReport node;     ///< what the node saw and flagged
    int64_t uploaded = 0;     ///< images sent to the cloud
    double accuracy_after = 0;///< node accuracy after the update
};

/**
 * The In-situ AI framework facade.
 *
 * Lifecycle: construct -> bootstrap(initial unlabeled+labeled data)
 * -> repeatedly feed stages through autonomous_step(). Planning
 * helpers expose the paper's mode/configuration selection for the
 * node hardware.
 */
class Framework {
  public:
    explicit Framework(FrameworkConfig config);

    /**
     * Cloud-side bootstrap (Fig. 4): unsupervised pre-training on the
     * raw images, transfer of the first kSharedConvs conv layers,
     * supervised training on the labels, deployment to the node.
     * @return node accuracy on the bootstrap data.
     */
    double bootstrap(const Dataset& initial);

    /**
     * One autonomous increment: the node predicts and diagnoses the
     * stage, ships only valuable samples, the cloud fine-tunes the
     * unfrozen suffix, and the refreshed models deploy back.
     */
    LoopReport autonomous_step(const Dataset& stage);

    /** Working mode chosen for this deployment (§IV-A2). */
    WorkingMode working_mode() const;

    /** Single-running plan on the given GPU (defaults to TX1). */
    SingleRunningPlan plan_single_running(
        const GpuSpec& gpu = tx1_spec()) const;

    /** Co-running plan on the given FPGA (defaults to VX690T). */
    CoRunningPlan plan_co_running(
        const FpgaSpec& fpga = vx690t_spec()) const;

    InsituNode& node() { return node_; }
    ModelUpdateService& cloud() { return cloud_; }
    const FrameworkConfig& config() const { return config_; }

  private:
    FrameworkConfig config_;
    ModelUpdateService cloud_;
    InsituNode node_;
    bool bootstrapped_ = false;
};

} // namespace insitu
