/**
 * @file
 * Abstract layer interface for the sequential network.
 *
 * Layers own (via shared_ptr) their parameters and cache whatever they
 * need from forward() to compute backward(). A layer processes a whole
 * batch at once; activations are NCHW or (batch, features) rank-2.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace insitu {

/**
 * Base class for all network layers.
 *
 * Contract: backward(grad_out) may only be called after a training
 * forward() on the same input, and consumes the cached state.
 * Parameter gradients are *accumulated* (+=) so multi-branch reuse
 * (e.g. the jigsaw trunk applied to nine patches) sums naturally; call
 * zero_grad between optimizer steps.
 */
class Layer {
  public:
    virtual ~Layer() = default;

    /** Short human-readable layer name, e.g. "conv1". */
    const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    /**
     * Run the layer on a batch. Pass @p training = true if and only if
     * a backward() will follow: a training forward caches the state
     * backward() consumes, an eval forward keeps none (a backward
     * after it dies on the layer's "backward before forward" check).
     * The output is the same either way.
     */
    virtual Tensor forward(const Tensor& input, bool training) = 0;

    /**
     * Back-propagate: given dLoss/dOutput, accumulate parameter
     * gradients and return dLoss/dInput.
     */
    virtual Tensor backward(const Tensor& grad_output) = 0;

    /**
     * Back-propagate for the parameter gradients only: the same
     * accumulation as backward(), without dLoss/dInput. This is what
     * Network::backward asks of the lowest layer it runs, whose input
     * gradient nobody reads. Layers with parameters override it to
     * skip that work; the default runs backward() and drops dX.
     */
    virtual void backward_params(const Tensor& grad_output)
    {
        (void)backward(grad_output);
    }

    /** Parameters owned by this layer (possibly shared with others). */
    virtual std::vector<ParameterPtr> params() { return {}; }

    /**
     * Replace parameter slot @p i with @p p (shape-checked).
     * This is the weight-sharing surgery hook: after the call this
     * layer and the donor layer read and write the *same* storage.
     */
    virtual void set_param(size_t i, ParameterPtr p);

    /** Kind tag used by network surgery ("conv", "linear", ...). */
    virtual std::string kind() const = 0;

    /** One-line config description for summaries. */
    virtual std::string describe() const { return kind(); }

  protected:
    std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace insitu
