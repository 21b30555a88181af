/**
 * @file
 * The Co-running WSS+NWS pipeline (Figs 19-20) and its competitor
 * configurations for the throughput-under-latency study (Fig 23).
 *
 * The pipeline has two stages: the conv architecture processes Bsize
 * images (inference + diagnosis tiles) while the NWS FCN engine runs
 * one batched FCN pass; the stage period is the slower of the two
 * (Eq 13) and the batch size is chosen as the largest that meets the
 * user latency requirement (Eq 14).
 */
#pragma once

#include "fpga/arch.h"

namespace insitu {

/** Competitor configurations of Fig. 23. */
enum class PipelineVariant {
    kNws,      ///< NWS conv + FCN without batched weight reuse
    kNwsBatch, ///< NWS conv + FCN with the Fig. 13 batch loop
    kWs,       ///< WS conv (uniform engines) + batched FCN
    kWssNws,   ///< the paper's design: WSS conv + batched NWS FCN
};

/** Printable variant name. */
const char* pipeline_variant_name(PipelineVariant variant);

/** Result of planning one variant under one latency requirement. */
struct PipelinePlan {
    bool feasible = false;
    int64_t batch = 0;       ///< chosen Bsize
    double latency = 0;      ///< seconds for one batch (2 periods)
    double throughput = 0;   ///< images/s steady-state
};

/** Planner/simulator for the Co-running pipeline configurations. */
class CorunPipeline {
  public:
    /**
     * @param spec FPGA device.
     * @param conv_pes PE budget of the conv stage.
     * @param fcn_engine unroll of the dedicated FCN engine.
     */
    CorunPipeline(FpgaSpec spec, int64_t conv_pes,
                  EngineUnroll fcn_engine);

    /**
     * Conv-stage seconds per image (compute + weight access) for the
     * given variant, including the co-running diagnosis tiles.
     */
    double conv_time_per_image(const NetworkDesc& net,
                               PipelineVariant variant) const;

    /** FCN-stage seconds for a batch under the variant's weight
     * reuse policy. */
    double fcn_stage_time(const NetworkDesc& net,
                          PipelineVariant variant,
                          int64_t batch) const;

    /** Stage period at a given batch (Eq 13 / Fig 20). */
    double period(const NetworkDesc& net, PipelineVariant variant,
                  int64_t batch) const;

    /**
     * Largest-batch plan satisfying latency <= @p latency_req
     * (Eq 14); plans maximize throughput among feasible batches.
     */
    PipelinePlan best_under_latency(const NetworkDesc& net,
                                    PipelineVariant variant,
                                    double latency_req,
                                    int64_t max_batch = 512) const;

  private:
    FpgaSpec spec_;
    FpgaArchSim sim_;
    EngineUnroll fcn_engine_;
};

} // namespace insitu
