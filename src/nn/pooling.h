/**
 * @file
 * Spatial max pooling.
 */
#pragma once

#include "nn/layer.h"

namespace insitu {

/** Max pooling over square windows. */
class MaxPool2d : public Layer {
  public:
    MaxPool2d(std::string name, int64_t kernel, int64_t stride);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "maxpool"; }
    std::string describe() const override;
    int64_t kernel() const { return kernel_; }
    int64_t stride() const { return stride_; }

  private:
    int64_t kernel_, stride_;
    std::vector<int64_t> cached_in_shape_;
    std::vector<int32_t> argmax_;
};

} // namespace insitu
