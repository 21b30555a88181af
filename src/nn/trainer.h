/**
 * @file
 * Mini-batch training and evaluation helpers.
 */
#pragma once

#include <vector>

#include "data/synth.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"

namespace insitu {

class Rng;

/**
 * One optimizer step on a single batch; returns the batch loss.
 * @p inputs enter layer @p first_layer (see Network::forward_layers):
 * the activations of a frozen prefix computed once by the caller.
 */
double train_batch(Network& net, Sgd& opt, const Tensor& inputs,
                   const std::vector<int64_t>& labels,
                   size_t first_layer = 0);

/** Images per eval forward of evaluate_accuracy and
 *  prefix_activations: bounds their activation memory. */
constexpr int64_t kEvalBatch = 64;

/** Top-1 accuracy of @p net on (inputs, labels), evaluated in chunks
 *  of @p batch_size to bound memory; @p inputs enter layer
 *  @p first_layer. */
double evaluate_accuracy(Network& net, const Tensor& inputs,
                         const std::vector<int64_t>& labels,
                         size_t first_layer = 0,
                         int64_t batch_size = kEvalBatch);

/**
 * Eval-mode activations entering layer @p end (> 0) of @p net for
 * every image of @p inputs, computed in chunks of @p batch_size.
 * While layers [0, end) stay frozen, this is what train_batch and
 * evaluate_accuracy read from @p end on.
 */
Tensor prefix_activations(Network& net, const Tensor& inputs, size_t end,
                          int64_t batch_size = kEvalBatch);

/** Epoch-level report from train_epochs. */
struct EpochStats {
    double mean_loss = 0.0;
    double train_seconds = 0.0; ///< wall-clock time of the epoch
};

/**
 * Train for @p epochs over (inputs, labels) with reshuffled batches;
 * @p inputs enter layer @p first_layer, as in train_batch.
 * @return per-epoch statistics (loss, wall time).
 */
std::vector<EpochStats> train_epochs(Network& net, Sgd& opt,
                                     const Tensor& inputs,
                                     const std::vector<int64_t>& labels,
                                     int64_t batch_size, int epochs,
                                     Rng& rng, size_t first_layer = 0);

/** Gather rows of @p inputs (dim 0) given index list. */
Tensor gather_rows(const Tensor& inputs,
                   const std::vector<int64_t>& indices);

/**
 * Pointer-range overload: gather @p count rows given a raw index
 * buffer. This is the arena-friendly form — callers stage the index
 * list in Workspace scratch instead of a fresh heap vector (the fleet
 * step path does this per node).
 */
Tensor gather_rows(const Tensor& inputs, const int64_t* indices,
                   int64_t count);

/**
 * The rows of @p data at @p indices as a new Dataset: images, labels
 * and @p data's condition. This is how flagged captures become an
 * upload.
 */
Dataset gather_dataset(const Dataset& data,
                       const std::vector<int64_t>& indices);

/** Pointer-range overload, arena-friendly like gather_rows'. */
Dataset gather_dataset(const Dataset& data, const int64_t* indices,
                       int64_t count);

} // namespace insitu
