/**
 * @file
 * 2-D convolution layer (square kernels, NCHW).
 *
 * Forward/backward are implemented with the im2col + GEMM lowering of
 * the paper's Fig. 8. The forward lowers each group of images (see
 * `kGroupCols`) in one `im2col_group` call, positions major and
 * images minor, and runs one GEMM per group. The backward lowers each
 * group the same way, forms its dX with one Fm^T * dL/dOm GEMM and
 * one group col2im, and adds each image's weight gradient straight
 * into the parameter's grad in batch order (`gemm_acc`, reading the
 * image's columns at a k-stride of the group size), so it is
 * bit-identical to a per-image loop at any thread width.
 * `backward_params` skips dX, for the lowest layer a backward runs.
 * The Fig. 9 direct loop nest is `conv2d_direct`, the reference the
 * forward is tested against.
 */
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace insitu {

class Rng;

/** Convolution layer with weight (M,N,K,K) and bias (M). */
class Conv2d : public Layer {
  public:
    /**
     * @param name layer name (parameters become name.weight/.bias).
     * @param in_channels N, number of input feature maps.
     * @param out_channels M, number of filters.
     * @param kernel K, square kernel size.
     * @param stride window stride.
     * @param pad zero padding on all four sides.
     * @param rng initializer source (Kaiming-uniform fan-in scaling).
     */
    Conv2d(std::string name, int64_t in_channels, int64_t out_channels,
           int64_t kernel, int64_t stride, int64_t pad, Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    void backward_params(const Tensor& grad_output) override;
    std::vector<ParameterPtr> params() override;
    void set_param(size_t i, ParameterPtr p) override;
    std::string kind() const override { return "conv"; }
    std::string describe() const override;

    int64_t in_channels() const { return in_channels_; }
    int64_t out_channels() const { return out_channels_; }
    int64_t kernel() const { return kernel_; }
    int64_t stride() const { return stride_; }
    int64_t pad() const { return pad_; }

    /** Direct access for surgery and tests. */
    const ParameterPtr& weight() const { return weight_; }
    const ParameterPtr& bias() const { return bias_; }

  private:
    ConvGeometry geometry(const Tensor& input) const;
    /** Accumulate dW and db; fill @p grad_input with dX unless null. */
    void accumulate_grads(const Tensor& grad_output, Tensor* grad_input);

    int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
    ParameterPtr weight_;
    ParameterPtr bias_;
    Tensor cached_input_;
};

} // namespace insitu
