#include "nn/activations.h"

#include "util/logging.h"

namespace insitu {

Tensor
ReLU::forward(const Tensor& input, bool training)
{
    Tensor out = Tensor::uninitialized(input.shape());
    const float* pi = input.data();
    float* po = out.data();
    const int64_t n = input.numel();
    for (int64_t i = 0; i < n; ++i)
        po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
    // The 0/1 mask is backward state: an eval forward keeps none, so a
    // backward after it fails the before-forward check.
    mask_ = training ? Tensor::uninitialized(input.shape()) : Tensor();
    float* pm = mask_.data();
    for (int64_t i = 0; i < mask_.numel(); ++i)
        pm[i] = pi[i] > 0.0f ? 1.0f : 0.0f;
    return out;
}

Tensor
ReLU::backward(const Tensor& grad_output)
{
    INSITU_CHECK(!mask_.empty(), "relu backward before forward");
    INSITU_CHECK(grad_output.same_shape(mask_),
                 "relu backward shape mismatch");
    Tensor out = grad_output;
    float* po = out.data();
    const float* pm = mask_.data();
    for (int64_t i = 0; i < out.numel(); ++i) po[i] *= pm[i];
    return out;
}

Tensor
Flatten::forward(const Tensor& input, bool /*training*/)
{
    INSITU_CHECK(input.rank() >= 2, "flatten needs rank >= 2");
    cached_shape_ = input.shape();
    return input.reshape({input.dim(0), -1});
}

Tensor
Flatten::backward(const Tensor& grad_output)
{
    INSITU_CHECK(!cached_shape_.empty(),
                 "flatten backward before forward");
    return grad_output.reshape(cached_shape_);
}

} // namespace insitu
