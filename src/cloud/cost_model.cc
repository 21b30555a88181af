#include "cloud/cost_model.h"

#include "util/logging.h"

namespace insitu {

double
TrainingCostModel::epoch_ops(const NetworkDesc& net, double images,
                             size_t first_trainable_layer) const
{
    INSITU_CHECK(images >= 0, "negative image count");
    INSITU_CHECK(first_trainable_layer <= net.layers.size(),
                 "first trainable layer out of range");

    double fwd = 0.0, bwd_data = 0.0, bwd_weight = 0.0;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        const double ops = net.layers[i].ops();
        fwd += ops;
        // dL/dX propagates from the loss down to (and including) the
        // first trainable layer; dL/dW only where weights update.
        if (i >= first_trainable_layer) {
            bwd_weight += ops;
            if (i > first_trainable_layer) bwd_data += ops;
        }
    }
    return (fwd + bwd_data + bwd_weight) * images;
}

TrainingCost
TrainingCostModel::train_cost(const NetworkDesc& net, double images,
                              int epochs,
                              size_t first_trainable_layer) const
{
    INSITU_CHECK(epochs >= 0, "negative epochs");
    TrainingCost c;
    c.ops = epoch_ops(net, images, first_trainable_layer) *
            static_cast<double>(epochs);
    const double sustained = gpu_.peak_ops() * kTrainingEfficiency;
    c.seconds = c.ops / sustained;
    c.energy_j = c.seconds * gpu_.power_watts;
    return c;
}

TrainingCost
TrainingCostModel::diagnosis_cost(const NetworkDesc& diagnosis,
                                  double images) const
{
    TrainingCost c;
    // Inference only: one forward pass of @p diagnosis per image. A
    // per-tile trunk descriptor counts each tile as one image, so the
    // caller multiplies its image count by the tiles.
    c.ops = diagnosis.total_ops() * images;
    const double sustained = gpu_.peak_ops() * kTrainingEfficiency;
    c.seconds = c.ops / sustained;
    c.energy_j = c.seconds * gpu_.power_watts;
    return c;
}

} // namespace insitu
