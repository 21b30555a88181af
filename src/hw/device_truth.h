/**
 * @file
 * The ground-truth device every analytical model in this repo is
 * judged against.
 *
 * The paper measures silicon: Fig. 21 profiles the real board by
 * brute force, and a serving node's batch times are whatever its
 * accelerator delivers. DeviceTruth plays that device
 * deterministically. Its mean batch time is the analytical Eq 3-8
 * latency warped by two hidden constants, a scale and a fixed
 * per-batch overhead, installed as the GpuModel's GpuCalibration
 * (perf4sight, arXiv 2108.05580: a host's deviation from the model is
 * exactly these two fitted constants). Each executed batch adds
 * bounded multiplicative jitter from a seeded stream. A planner never
 * sees the constants; recovering them is the calibration loop's job
 * (docs/serving.md, "The calibration loop").
 */
#pragma once

#include <cstdint>

#include "hw/gpu_model.h"
#include "util/rng.h"

namespace insitu {

/** The device's hidden constants (hidden from any planner). */
struct DeviceTruthConfig {
    double time_scale = 1.6;  ///< true scale vs the analytical model
    double overhead_s = 4e-3; ///< true per-batch dispatch cost
    uint64_t seed = 0x5E41;   ///< jitter stream seed
};

/** Deterministic stand-in for a physical accelerator. */
class DeviceTruth {
  public:
    /// Half-width of the uniform multiplicative jitter of a batch.
    static constexpr double kJitterFrac = 0.05;

    DeviceTruth(GpuSpec spec, const DeviceTruthConfig& config);

    /**
     * Execute one batch: mean × jitter × @p corun_factor seconds, in
     * that order. @p corun_factor is the Fig. 16 interference
     * slowdown when a diagnosis kernel co-runs. Each call advances
     * the jitter stream, so call order defines the timeline.
     */
    double run_batch(const NetworkDesc& net, int64_t batch,
                     double corun_factor = 1.0);

    /** Jitter-free mean batch time: the calibrated prediction of the
     * hidden constants. */
    double
    mean_batch_seconds(const NetworkDesc& net, int64_t batch) const
    {
        return model_.predicted_batch_latency(net, batch);
    }

    /** The device's model, hidden constants installed. */
    const GpuModel& model() const { return model_; }

  private:
    GpuModel model_;
    Rng rng_;
};

} // namespace insitu
