/**
 * @file
 * Sequential network container plus the transfer-learning surgery the
 * In-situ AI framework relies on: copying, freezing and *sharing* the
 * first n convolutional layers between networks (§III-A, Fig. 4/6).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace insitu {

namespace obs {
class Histogram;
}

/**
 * A stack of layers executed in order.
 *
 * Layers are owned; parameters may be shared with other networks after
 * share_convs_from() — the pointer identity is the sharing mechanism.
 */
class Network {
  public:
    Network() = default;
    explicit Network(std::string name) : name_(std::move(name)) {}

    // Networks own layers; they move but do not copy.
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;
    Network(Network&&) = default;
    Network& operator=(Network&&) = default;

    const std::string& name() const { return name_; }

    /** Append a layer, returning a reference for chaining. */
    Network& add(LayerPtr layer);

    /** Construct a layer in place. */
    template <typename L, typename... Args>
    Network&
    emplace(Args&&... args)
    {
        return add(std::make_unique<L>(std::forward<Args>(args)...));
    }

    /** Run all layers. */
    Tensor forward(const Tensor& input, bool training = false);

    /**
     * Run layers [begin, end) on @p input, the activation entering
     * layer @p begin. Each image's activations depend only on that
     * image, and eval and training forwards agree, so running a frozen
     * prefix once in eval mode and training layers [begin, size()) on
     * its output gives the same bits as full training forwards.
     */
    Tensor forward_layers(const Tensor& input, bool training,
                          size_t begin, size_t end);

    /** Index of the shallowest layer holding an unfrozen parameter;
     *  size() when every parameter is frozen. */
    size_t first_trainable() const;

    /**
     * Back-propagate (after a training forward) for the parameter
     * gradients. Backward stops at first_trainable(): a fully frozen
     * prefix neither computes nor receives gradients, which is what
     * makes weight-shared fine-tuning cheaper (Fig. 6), and that
     * lowest layer computes no input gradient either
     * (Layer::backward_params), since nothing reads it.
     */
    void backward(const Tensor& grad_output);

    /**
     * Back-propagate through every layer and return dLoss/dInput of
     * the network: for a network whose input gradient feeds another
     * network (a jigsaw or relative-position head feeds its trunk).
     */
    Tensor backward_input(const Tensor& grad_output);

    /** Number of layers. */
    size_t size() const { return layers_.size(); }

    /** Access layer @p i. */
    Layer& layer(size_t i);
    const Layer& layer(size_t i) const;

    /**
     * All distinct parameters in layer order (shared parameters are
     * reported once even if referenced by several layers).
     */
    std::vector<ParameterPtr> params() const;

    /** Zero every parameter gradient. */
    void zero_grad();

    /** Total scalar weight count (distinct parameters). */
    int64_t param_count() const;

    /** Scalar weight count excluding frozen parameters. */
    int64_t trainable_param_count() const;

    /** Indices of conv layers in order of appearance. */
    std::vector<size_t> conv_layer_indices() const;

    /**
     * Freeze the parameters of the first @p n conv layers (paper's
     * CONV-n locking). n == 0 unfreezes nothing; layers beyond the
     * conv count cause a fatal error.
     */
    void freeze_first_convs(size_t n);

    /** Clear every frozen flag. */
    void unfreeze_all();

    /**
     * Deep-copy parameter *values* of the first @p n conv layers from
     * @p donor (shapes must match). Used for the paper's transfer
     * learning where copied layers are then fine-tuned.
     */
    void copy_convs_from(const Network& donor, size_t n);

    /**
     * Share parameter *storage* of the first @p n conv layers with
     * @p donor: after the call both networks use the same Parameter
     * objects. Used by the node where the diagnosis network shares
     * CONV weights with the inference network.
     */
    void share_convs_from(Network& donor, size_t n);

    /**
     * Number of leading conv layers whose weight storage is shared
     * (pointer-identical) with @p other.
     */
    size_t shared_conv_prefix(const Network& other) const;

    /** Multi-line human-readable summary. */
    std::string summary() const;

  private:
    /** Layers [stop, size()) backward from @p grad_output, timed. */
    Tensor backward_from_top(const Tensor& grad_output, size_t stop,
                             bool input_grad);

    /** A layer's per-kind timing histograms, each resolved on the
     *  layer's first call in that direction; null until then. */
    struct LayerTimers {
        obs::Histogram* forward = nullptr;
        obs::Histogram* backward = nullptr;
    };

    std::string name_;
    std::vector<LayerPtr> layers_;
    std::vector<LayerTimers> timers_; ///< parallel to layers_
};

/**
 * Deep-copy every distinct parameter value of @p src into @p dst by
 * position (the model-deployment primitive: cloud -> node). Shapes
 * and parameter counts must match.
 */
void copy_parameters(Network& dst, const Network& src);

} // namespace insitu
