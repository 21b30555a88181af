#include "nn/activations.h"

#include "util/logging.h"

namespace insitu {

Tensor
ReLU::forward(const Tensor& input, bool /*training*/)
{
    Tensor out = input;
    mask_ = Tensor(input.shape());
    float* po = out.data();
    float* pm = mask_.data();
    for (int64_t i = 0; i < out.numel(); ++i) {
        if (po[i] > 0.0f) {
            pm[i] = 1.0f;
        } else {
            po[i] = 0.0f;
        }
    }
    return out;
}

Tensor
ReLU::backward(const Tensor& grad_output)
{
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
