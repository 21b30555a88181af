/**
 * @file
 * Analytical cost model of cloud-side training (§V-B, Fig. 25).
 *
 * Training ops per image: one full forward pass plus backward work
 * only through the trainable suffix of the network — this is why the
 * weight-shared In-situ update (only the last conv layers and the FCN
 * head retrain) is cheaper than a full retrain, independent of the
 * data-volume savings from diagnosis.
 */
#pragma once

#include "hw/gpu_model.h"
#include "hw/spec.h"
#include "models/descriptor.h"

namespace insitu {

/** One training job's modeled cost. */
struct TrainingCost {
    double ops = 0;        ///< total training ops
    double seconds = 0;    ///< wall time on the training GPU
    double energy_j = 0;   ///< GPU energy
};

/** Cost model bound to one training device (the paper's Titan X). */
class TrainingCostModel {
  public:
    explicit TrainingCostModel(GpuSpec gpu) : gpu_(std::move(gpu)) {}

    /**
     * Ops for one epoch over @p images images when only layers with
     * index >= @p first_trainable_layer (counting conv+fcn layers in
     * order) are updated. Forward always runs the whole network;
     * backward runs from the loss down to the first trainable layer;
     * weight gradients are computed for trainable layers only.
     */
    double epoch_ops(const NetworkDesc& net, double images,
                     size_t first_trainable_layer) const;

    /** Full job cost: @p epochs epochs over @p images images. */
    TrainingCost train_cost(const NetworkDesc& net, double images,
                            int epochs,
                            size_t first_trainable_layer = 0) const;

    /**
     * Cost of running the diagnosis (jigsaw) network over @p images
     * in the cloud — what system (b) of Fig. 24 pays to filter data
     * server-side.
     */
    TrainingCost diagnosis_cost(const NetworkDesc& diagnosis,
                                double images) const;

    /** Sustained training efficiency (fraction of peak). */
    static constexpr double kTrainingEfficiency = 0.55;

  private:
    GpuSpec gpu_;
};

} // namespace insitu
