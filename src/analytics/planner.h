/**
 * @file
 * Configuration planners built on the analytical models (§IV-B).
 *
 * Single-running mode (GPU): the time model picks the inference batch
 * — the largest whose latency meets the user requirement, which also
 * maximizes perf/W — and the resource model (Eq 9) picks the
 * diagnosis batch. Co-running mode (FPGA): Eqs (10)-(14) pick the WSS
 * group size and the FCN batch under the latency requirement.
 */
#pragma once

#include <vector>

#include "hw/device_truth.h"
#include "hw/fpga_model.h"
#include "hw/gpu_model.h"
#include "models/descriptor.h"

namespace insitu {

/** The two deployment modes of §IV-A2. */
enum class WorkingMode { kSingleRunning, kCoRunning };

/** Printable mode name. */
const char* working_mode_name(WorkingMode mode);

/**
 * The paper's mode decision: if the inference task must be available
 * 24/7 the tasks co-run on the FPGA; otherwise they time-share the
 * GPU.
 */
WorkingMode choose_working_mode(bool inference_always_on);

/** Single-running plan for the two tasks on one GPU. */
struct SingleRunningPlan {
    int64_t inference_batch = 1;
    /// True when the latency budget stopped the inference batch (one
    /// more image would miss it); false when the batch search's cap
    /// did.
    bool inference_latency_limited = false;
    double inference_latency = 0;     ///< seconds per batch
    double inference_perf_per_watt = 0;
    int64_t diagnosis_batch = 1;
    /// True when Eq (9) stopped the diagnosis batch (one more image
    /// would not fit); false when the batch search's cap did.
    bool diagnosis_memory_limited = false;
    double diagnosis_memory_bytes = 0;
    double diagnosis_perf_per_watt = 0;
};

/** Planner for Single-running mode. */
class SingleRunningPlanner {
  public:
    explicit SingleRunningPlanner(GpuModel gpu) : gpu_(std::move(gpu)) {}

    /**
     * Time model: largest batch whose modeled latency stays within
     * @p latency_req. Returns 1 even if batch 1 misses the budget
     * (the device simply cannot do better).
     */
    int64_t max_batch_under_latency(const NetworkDesc& net,
                                    double latency_req,
                                    int64_t max_batch = 512) const;

    /** Full plan: time model for inference, Eq (9) for diagnosis. */
    SingleRunningPlan plan(const NetworkDesc& inference,
                           const NetworkDesc& diagnosis,
                           double latency_req) const;

    const GpuModel& gpu() const { return gpu_; }

  private:
    GpuModel gpu_;
};

/**
 * The board Fig. 21 profiles: near the analytical model (6 % slower,
 * 0.4 ms per-batch dispatch cost, ±5 % jitter), so brute force can
 * beat the time model's pick only slightly, as on the paper's board.
 */
inline constexpr DeviceTruthConfig kFig21Board{1.06, 0.4e-3, 0x5EED};

/**
 * Brute-force profiling (Fig. 21's "best case"): element b - 1 is the
 * measured seconds of one batch of b images, for every b in
 * [1, max_batch], each run once on @p device in ascending order.
 */
std::vector<double> profile_batches(DeviceTruth& device,
                                    const NetworkDesc& net,
                                    int64_t max_batch = 512);

/**
 * The best-throughput batch of a profile_batches() table whose
 * measured latency meets @p latency_req; 1 if none does.
 */
int64_t best_profiled_batch(const std::vector<double>& seconds,
                            double latency_req);

/** Co-running plan for the WSS+NWS pipeline on the FPGA. */
struct CoRunningPlan {
    bool feasible = false;
    WssConfig config;
    double latency = 0;
    double throughput = 0;
    double perf_per_watt = 0;
};

/** Planner for Co-running mode. */
class CoRunningPlanner {
  public:
    explicit CoRunningPlanner(FpgaModel fpga) : fpga_(std::move(fpga)) {}

    /**
     * Search WSS group sizes and FCN batch sizes within the DSP
     * budget (Eq 10), maximizing throughput subject to the latency
     * requirement (Eq 14).
     */
    CoRunningPlan plan(const NetworkDesc& net, double latency_req,
                       int64_t max_batch = 256) const;

    const FpgaModel& fpga() const { return fpga_; }

  private:
    FpgaModel fpga_;
};

} // namespace insitu
