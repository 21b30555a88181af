/**
 * @file
 * Analytical GPU performance/energy model (§IV-A, §IV-B1).
 *
 * Implements the paper's equations directly:
 *  - Eq (2) Gridsize of the im2col/GEMM lowering,
 *  - Eq (3) GPU resource utilization,
 *  - Eq (5) CONV-layer runtime,
 *  - Eq (6) roofline-limited achieved performance,
 *  - Eq (7) maxOPS, Eq (8) compute-to-memory ratio of FCN layers,
 *  - Eq (9) memory resource constraint,
 * plus a calibrated co-running interference model reproducing the
 * up-to-3x inference slowdown of Fig. 16.
 */
#pragma once

#include <vector>

#include "hw/spec.h"
#include "models/descriptor.h"

namespace insitu {

/** Timing result for one layer at one batch size. */
struct GpuLayerTiming {
    double seconds = 0;      ///< wall time of the whole batch
    double utilization = 0;  ///< Eq (3)
    double achieved_ops = 0; ///< ops/s actually delivered
    bool memory_bound = false;
};

/**
 * Host-specific correction of the analytical time model.
 *
 * The Eq 3-8 model predicts the *shape* of batch latency; a real host
 * deviates from it by a near-constant factor (kernel efficiency,
 * clocks) plus a fixed per-batch cost (launch/dispatch overhead). The
 * perf4sight observation (arXiv 2108.05580) is that fitting these two
 * constants to on-device measurements turns the analytical model into
 * an accurate per-host predictor:
 *
 *     predicted(b) = time_scale * modeled(b) + overhead_s
 */
struct GpuCalibration {
    double time_scale = 1.0; ///< multiplies the modeled batch time
    double overhead_s = 0.0; ///< fixed per-batch dispatch cost
    /// Number of measured observations the fit consumed (0 for the
    /// identity calibration a fresh model starts with).
    int64_t samples = 0;

    bool
    is_identity() const
    {
        return time_scale == 1.0 && overhead_s == 0.0;
    }
};

/**
 * One measured operating point for the calibration fit: the mean of
 * @p count batch executions at batch size @p batch took
 * @p mean_seconds. In the serving runtime these come straight out of
 * the `serving.exec.time_s.b*` span histograms (count + sum).
 */
struct BatchObservation {
    int64_t batch = 1;
    double mean_seconds = 0;
    int64_t count = 1; ///< fit weight
};

/** Analytical model of one GPU device. */
class GpuModel {
  public:
    explicit GpuModel(GpuSpec spec) : spec_(std::move(spec)) {}

    const GpuSpec& spec() const { return spec_; }

    /** Eq (2): thread blocks needed for the layer's output matrix. */
    double grid_size(const LayerDesc& layer, int64_t batch) const;

    /** Eq (3): fraction of compute capacity kept busy. */
    double utilization(const LayerDesc& layer, int64_t batch) const;

    /** Eq (5) with the Eq (6) roofline: one layer, whole batch. */
    GpuLayerTiming layer_time(const LayerDesc& layer, int64_t batch,
                              bool batch_shares_weights = true) const;

    /** Sum of conv-layer times for one batch. */
    double conv_latency(const NetworkDesc& net, int64_t batch) const;

    /** Sum of FCN-layer times for one batch. */
    double fcn_latency(const NetworkDesc& net, int64_t batch,
                       bool batch_shares_weights = true) const;

    /** End-to-end batch latency (conv + fcn). */
    double network_latency(const NetworkDesc& net, int64_t batch) const;

    /**
     * Install a measured calibration. network_latency() and every
     * metric derived from it stay *uncalibrated* (they are the
     * analytical Eq 3-8 values); only predicted_batch_latency() and
     * residual() apply the correction, so a calibrated and an
     * uncalibrated model always agree on the analytical baseline.
     */
    void set_calibration(const GpuCalibration& calib);

    const GpuCalibration& calibration() const { return calib_; }

    /**
     * Calibrated end-to-end batch latency:
     * time_scale * network_latency(net, batch) + overhead_s.
     * This is what an online planner should compare deadlines
     * against.
     */
    double predicted_batch_latency(const NetworkDesc& net,
                                   int64_t batch) const;

    /**
     * Signed relative residual of a measurement against the
     * calibrated prediction: (measured - predicted) / predicted.
     * Near zero after a good fit; the serving runtime exports these
     * as `serving.calib.residual_abs`.
     */
    double residual(const NetworkDesc& net, int64_t batch,
                    double measured_s) const;

    /** Steady-state throughput in images/s at the given batch. */
    double images_per_second(const NetworkDesc& net,
                             int64_t batch) const;

    /** Energy-efficiency metric of Fig. 11/14: images/s/W. */
    double perf_per_watt(const NetworkDesc& net, int64_t batch) const;

    /** Eq (9): bytes of device memory the run needs. */
    double memory_required(const NetworkDesc& net, int64_t batch) const;

    /** Largest batch that satisfies Eq (9); at least 1. */
    int64_t max_batch_for_memory(const NetworkDesc& net,
                                 int64_t limit = 4096) const;

    /**
     * Inference-latency inflation when a diagnosis workload co-runs
     * on the same GPU (Fig. 16). The two kernels' thread blocks
     * contend for the same SMs; the slowdown grows with the
     * co-runner's share of outstanding work and saturates at ~3x,
     * matching the paper's measurement.
     *
     * @param inference_ops ops outstanding per inference batch.
     * @param diagnosis_ops ops outstanding per co-running diagnosis
     *        batch (0 = no co-runner).
     */
    double corun_slowdown(double inference_ops,
                          double diagnosis_ops) const;

  private:
    GpuSpec spec_;
    GpuCalibration calib_;
};

/**
 * Fit the two calibration constants from measured operating points:
 * the count-weighted least-squares solution of
 *
 *     mean_seconds_i ~= time_scale * modeled(batch_i) + overhead_s
 *
 * where modeled() is the *uncalibrated* analytical latency of
 * @p model (any calibration already installed on it is ignored).
 * Degenerate inputs fall back gracefully: with fewer than two
 * distinct batch sizes (or a rank-deficient system) the overhead is
 * pinned to zero and only the scale is fitted; a fit that would
 * produce a non-positive scale or a negative overhead is re-solved
 * with the offending constant clamped, so the returned calibration
 * always predicts positive, batch-monotone latencies. Empty input
 * returns the identity calibration.
 */
GpuCalibration fit_calibration(const GpuModel& model,
                               const NetworkDesc& net,
                               const std::vector<BatchObservation>& obs);

} // namespace insitu
