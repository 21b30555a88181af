/**
 * @file
 * Fully-connected (FCN) layer.
 *
 * In the paper's terminology these are the FCN layers whose
 * matrix-vector pattern becomes matrix-matrix under batching — the
 * effect the batch-size optimization of §IV-A2 exploits.
 */
#pragma once

#include "nn/layer.h"

namespace insitu {

class Rng;

/** y = x * W^T + b with W stored (out_features, in_features). */
class Linear : public Layer {
  public:
    /** Kaiming-uniform initialized linear layer. */
    Linear(std::string name, int64_t in_features, int64_t out_features,
           Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    void backward_params(const Tensor& grad_output) override;
    std::vector<ParameterPtr> params() override;
    void set_param(size_t i, ParameterPtr p) override;
    std::string kind() const override { return "linear"; }
    std::string describe() const override;

    int64_t in_features() const { return in_features_; }
    int64_t out_features() const { return out_features_; }
    const ParameterPtr& weight() const { return weight_; }
    const ParameterPtr& bias() const { return bias_; }

  private:
    int64_t in_features_, out_features_;
    ParameterPtr weight_;
    ParameterPtr bias_;
    Tensor cached_input_;
};

} // namespace insitu
