/**
 * @file
 * Parameter-free layers: ReLU, Flatten.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace insitu {

/** Elementwise max(0, x). */
class ReLU : public Layer {
  public:
    explicit ReLU(std::string name = "relu") { set_name(std::move(name)); }

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "relu"; }

    /** Drop the backward state, as an eval forward does: a backward
     *  after it fails the before-forward check. */
    void drop_state();

  private:
    // Train-mode backward state: one byte per element, 1 where x > 0.
    std::vector<int64_t> mask_shape_;
    std::vector<uint8_t> mask_;
};

/** Collapse all non-batch dimensions: (B, ...) -> (B, F). */
class Flatten : public Layer {
  public:
    explicit Flatten(std::string name = "flatten")
    {
        set_name(std::move(name));
    }

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "flatten"; }

  private:
    std::vector<int64_t> cached_shape_;
};

} // namespace insitu
